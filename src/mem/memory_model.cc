#include "mem/memory_model.h"

#include "sim/logging.h"

namespace cnv::mem {

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Ideal: return "ideal";
      case Kind::Banked: return "banked";
    }
    CNV_FATAL("unknown mem::Kind value {}", static_cast<int>(k));
}

std::optional<Kind>
parseKind(std::string_view name)
{
    if (name == "ideal")
        return Kind::Ideal;
    if (name == "banked")
        return Kind::Banked;
    return std::nullopt;
}

} // namespace cnv::mem
