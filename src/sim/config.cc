#include "sim/config.hh"

#include "sim/logging.hh"

namespace rr::sim
{

const char *
toString(RecorderMode mode)
{
    switch (mode) {
      case RecorderMode::Base:
        return "Base";
      case RecorderMode::Opt:
        return "Opt";
    }
    return "?";
}

const char *
toString(CoherenceKind kind)
{
    switch (kind) {
      case CoherenceKind::Snoopy:
        return "snoopy";
      case CoherenceKind::Directory:
        return "directory";
    }
    return "?";
}

bool
parseCoherenceKind(const std::string &text, CoherenceKind &out)
{
    if (text == "snoopy") {
        out = CoherenceKind::Snoopy;
        return true;
    }
    if (text == "directory") {
        out = CoherenceKind::Directory;
        return true;
    }
    return false;
}

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

void
validateCache(const char *name, const CacheConfig &c)
{
    if (c.sizeBytes == 0 || c.sizeBytes % (kLineBytes * c.associativity))
        throw ConfigError(
            strfmt("%s: size must be a multiple of line*assoc", name));
    if (!isPow2(c.numSets()))
        throw ConfigError(
            strfmt("%s: number of sets (%u) must be a power of two", name,
                   c.numSets()));
    if (c.mshrEntries == 0)
        throw ConfigError(strfmt("%s: need at least one MSHR", name));
}

} // namespace

void
MachineConfig::validate() const
{
    if (numCores == 0)
        throw ConfigError("machine needs at least one core");
    if (core.robEntries == 0 || core.lsqEntries == 0)
        throw ConfigError("core queues must be non-empty");
    if (core.fetchWidth == 0 || core.retireWidth == 0)
        throw ConfigError("core widths must be non-zero");
    if (core.writeBufferEntries == 0)
        throw ConfigError("write buffer must be non-empty");
    if (!isPow2(core.predictorEntries))
        throw ConfigError("predictor entries must be a power of two");
    if (coherence == CoherenceKind::Directory && numCores > 64)
        throw ConfigError("directory coherence supports at most 64 cores "
                          "(full-map sharer bitvector)");
    validateCache("L1", l1);
    validateCache("L2", l2);
}

} // namespace rr::sim
