#include "common/config.hpp"

namespace delorean
{

namespace
{

struct ModeSpelling
{
    const char *name;
    ModeConfig (*preferred)();
    bool stratified;
};

constexpr ModeSpelling kModeSpellings[] = {
    {"order-and-size", &ModeConfig::orderAndSize, false},
    {"order-only", &ModeConfig::orderOnly, false},
    {"order-only-strat", &ModeConfig::orderOnly, true},
    {"picolog", &ModeConfig::picoLog, false},
};

} // namespace

const char *
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::kOrderAndSize:
        return "Order&Size";
      case ExecMode::kOrderOnly:
        return "OrderOnly";
      case ExecMode::kPicoLog:
        return "PicoLog";
    }
    return "unknown";
}

const char *
modeConfigName(const ModeConfig &mode)
{
    const bool stratified = mode.mode == ExecMode::kOrderOnly
                            && mode.stratifyChunksPerProc != 0;
    for (const ModeSpelling &s : kModeSpellings)
        if (s.preferred().mode == mode.mode && s.stratified == stratified)
            return s.name;
    return "unknown";
}

bool
parseModeConfig(const std::string &name, unsigned strata, ModeConfig &out)
{
    for (const ModeSpelling &s : kModeSpellings) {
        if (name == s.name) {
            out = s.preferred();
            if (s.stratified)
                out.stratifyChunksPerProc = strata;
            return true;
        }
    }
    return false;
}

} // namespace delorean
