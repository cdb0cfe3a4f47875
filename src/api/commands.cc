#include "api/commands.hh"

namespace wc3d::api {

bool
isStateCall(const Command &cmd)
{
    return !std::holds_alternative<DrawCmd>(cmd) &&
           !std::holds_alternative<EndFrameCmd>(cmd);
}

} // namespace wc3d::api
