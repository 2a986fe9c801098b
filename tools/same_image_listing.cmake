# Fails unless `replay_check --list-checkpoints` prints the same
# checkpoint image lines (kind, base GCC, stored bytes) and the same
# "images: K keyframe(s), D delta(s), S bytes stored" totals for two
# containers of one run. Run with
#   cmake -DREPLAY_CHECK=<replay_check> -DA=<container> -DB=<container>
#         -P same_image_listing.cmake
foreach(which A B)
  execute_process(COMMAND ${REPLAY_CHECK} --list-checkpoints ${${which}}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay_check --list-checkpoints ${${which}} exited ${rc}:\n${out}")
  endif()
  string(REGEX MATCHALL "(  checkpoint [^\n]*|images: [^\n]*)" lines "${out}")
  set(listing_${which} "${lines}")
endforeach()
if(NOT listing_A MATCHES "images: ")
  message(FATAL_ERROR "no image totals in the listing of ${A}")
endif()
if(NOT listing_A STREQUAL listing_B)
  message(FATAL_ERROR "image listings differ:\n${A}: ${listing_A}\n${B}: ${listing_B}")
endif()
string(REGEX MATCH "images: [^;]*" totals "${listing_A}")
message(STATUS "${A} and ${B}: ${totals}")
