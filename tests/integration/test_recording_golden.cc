/**
 * @file
 * Recording exactness gate: every kernel recorded at 8 cores under both
 * coherence backends and both recorder policies (interval cap 128,
 * dependency edges on), plus fft on a 64-core directory machine, must
 * reproduce a pinned table of results bit for bit:
 *
 *  - the run's cycle count, retired instructions and final-memory
 *    fingerprint;
 *  - an FNV-1a hash of the `.rrlog` bytes the streaming LogWriter
 *    produces (the file `rrsim record ... --interval 128 --deps` writes);
 *  - the machine-wide sums of a few counters that a recording does not
 *    depend on (ROB-full stalls, squashed instructions, mispredicts, L1
 *    misses) plus the recorder's interval count, so a statistics
 *    mistake that leaves the log intact still shows.
 *
 * The table pins the simulator's timing model: any change to the core,
 * the memory system or the recorder that is meant to be a pure speed-up
 * must leave it unchanged. A mismatch prints the observed row in table
 * syntax.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "rnr/logstore.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;
using sim::CoherenceKind;
using sim::RecorderMode;

constexpr std::uint64_t kIntervalCap = 128;

struct Golden
{
    const char *kernel;
    std::uint32_t cores;
    CoherenceKind coherence;
    RecorderMode mode;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memoryFingerprint = 0;
    std::uint64_t rrlogHash = 0;
    std::uint64_t robFullStalls = 0;
    std::uint64_t squashedInstructions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t intervals = 0;
};

constexpr CoherenceKind kSnoopy = CoherenceKind::Snoopy;
constexpr CoherenceKind kDir = CoherenceKind::Directory;
constexpr RecorderMode kBase = RecorderMode::Base;
constexpr RecorderMode kOpt = RecorderMode::Opt;

// clang-format off
const Golden kGolden[] = {
    {"fft", 8, kSnoopy, kBase, 16041, 392719, 0xb5897e6c272939e1ULL, 0xa8848b2e30a6d5c3ULL, 8530, 45111, 3287, 618, 3024},
    {"fft", 8, kSnoopy, kOpt, 16041, 392719, 0xb5897e6c272939e1ULL, 0xa07c7b4a5af5f233ULL, 8530, 45111, 3287, 618, 3026},
    {"fft", 8, kDir, kBase, 15724, 390628, 0x0bb5e5952a38ffd3ULL, 0xc741cc4f07beaae7ULL, 7792, 41086, 3223, 629, 3024},
    {"fft", 8, kDir, kOpt, 15724, 390628, 0x0bb5e5952a38ffd3ULL, 0x1d37ee12541878e8ULL, 7792, 41086, 3223, 629, 3024},
    {"lu", 8, kSnoopy, kBase, 3975, 45573, 0x9f230c801ee9611dULL, 0x367f7bf6041c4fffULL, 12435, 23676, 562, 547, 388},
    {"lu", 8, kSnoopy, kOpt, 3975, 45573, 0x9f230c801ee9611dULL, 0xf03aff79c950caf9ULL, 12435, 23676, 562, 547, 388},
    {"lu", 8, kDir, kBase, 3820, 45828, 0x9f230c801ee9611dULL, 0xd8a398740d1491efULL, 11653, 22225, 545, 547, 399},
    {"lu", 8, kDir, kOpt, 3820, 45828, 0x9f230c801ee9611dULL, 0xf989f6e2994969e0ULL, 11653, 22225, 545, 547, 400},
    {"radix", 8, kSnoopy, kBase, 30446, 125123, 0x6893f5b8b1c17c28ULL, 0xadc9339f6aa5e591ULL, 189314, 86269, 1593, 2709, 1383},
    {"radix", 8, kSnoopy, kOpt, 30446, 125123, 0x6893f5b8b1c17c28ULL, 0x37659df15e4f6814ULL, 189314, 86269, 1593, 2709, 1397},
    {"radix", 8, kDir, kBase, 29388, 121394, 0x6893f5b8b1c17c28ULL, 0x26a1a51d37ded59fULL, 183409, 81065, 1499, 2726, 1381},
    {"radix", 8, kDir, kOpt, 29388, 121394, 0x6893f5b8b1c17c28ULL, 0x6d4faaa2408361d9ULL, 183409, 81065, 1499, 2726, 1396},
    {"ocean", 8, kSnoopy, kBase, 53892, 742245, 0xd2286218b086e9a4ULL, 0xb5aaffcfd24cf082ULL, 280305, 34904, 6463, 1192, 5804},
    {"ocean", 8, kSnoopy, kOpt, 53892, 742245, 0xd2286218b086e9a4ULL, 0x70090fc26d0e7e2dULL, 280305, 34904, 6463, 1192, 5806},
    {"ocean", 8, kDir, kBase, 53585, 742041, 0xd2286218b086e9a4ULL, 0x94f0cbdef8acde3fULL, 278273, 33831, 6449, 1192, 5801},
    {"ocean", 8, kDir, kOpt, 53585, 742041, 0xd2286218b086e9a4ULL, 0xddc930108f185bd9ULL, 278273, 33831, 6449, 1192, 5801},
    {"barnes", 8, kSnoopy, kBase, 33336, 378087, 0xa794a89a4656cbf3ULL, 0xcc00958abaef8876ULL, 187003, 24113, 3590, 2815, 3082},
    {"barnes", 8, kSnoopy, kOpt, 33336, 378087, 0xa794a89a4656cbf3ULL, 0xae91939665c89f61ULL, 187003, 24113, 3590, 2815, 3084},
    {"barnes", 8, kDir, kBase, 32778, 377625, 0xa794a89a4656cbf3ULL, 0x9c54225c5c657be6ULL, 183185, 22773, 3570, 2813, 3087},
    {"barnes", 8, kDir, kOpt, 32778, 377625, 0xa794a89a4656cbf3ULL, 0x5668fb874d35245fULL, 183185, 22773, 3570, 2813, 3090},
    {"cholesky", 8, kSnoopy, kBase, 25747, 325132, 0x6c634408c0905e4bULL, 0xab451fc770c77b47ULL, 116646, 16873, 2739, 1485, 2466},
    {"cholesky", 8, kSnoopy, kOpt, 25747, 325132, 0x6c634408c0905e4bULL, 0x84072c910ec72ab1ULL, 116646, 16873, 2739, 1485, 2466},
    {"cholesky", 8, kDir, kBase, 25333, 324928, 0x6c634408c0905e4bULL, 0x5c9baaaf9612221dULL, 113635, 16428, 2731, 1476, 2462},
    {"cholesky", 8, kDir, kOpt, 25333, 324928, 0x6c634408c0905e4bULL, 0xf8f8ca9f219b5acbULL, 113635, 16428, 2731, 1476, 2462},
    {"water-nsq", 8, kSnoopy, kBase, 26246, 234987, 0xfeb421b4f3262557ULL, 0xd7d7c86918fb22aaULL, 161147, 21921, 2357, 770, 1834},
    {"water-nsq", 8, kSnoopy, kOpt, 26246, 234987, 0xfeb421b4f3262557ULL, 0x0d71b278583d1a94ULL, 161147, 21921, 2357, 770, 1835},
    {"water-nsq", 8, kDir, kBase, 25852, 234375, 0xfeb421b4f3262557ULL, 0xe22f734bc7c1ec42ULL, 158766, 20289, 2333, 769, 1834},
    {"water-nsq", 8, kDir, kOpt, 25852, 234375, 0xfeb421b4f3262557ULL, 0x3cb18b3db9e587baULL, 158766, 20289, 2333, 769, 1836},
    {"water-sp", 8, kSnoopy, kBase, 9382, 113513, 0x0e7e6c2558f7a9d3ULL, 0xe27073e98310c110ULL, 46247, 17275, 1227, 459, 872},
    {"water-sp", 8, kSnoopy, kOpt, 9382, 113513, 0x0e7e6c2558f7a9d3ULL, 0x71db7587c19857eaULL, 46247, 17275, 1227, 459, 873},
    {"water-sp", 8, kDir, kBase, 9138, 112697, 0x0e7e6c2558f7a9d3ULL, 0x6e79b0ced53c2145ULL, 45054, 15627, 1199, 459, 868},
    {"water-sp", 8, kDir, kOpt, 9138, 112697, 0x0e7e6c2558f7a9d3ULL, 0xc390d8031738492fULL, 45054, 15627, 1199, 459, 870},
    {"raytrace", 8, kSnoopy, kBase, 7042, 93364, 0xd8cd8b7cf918b4e2ULL, 0xd4a086b3e64b828cULL, 21437, 13482, 1493, 679, 768},
    {"raytrace", 8, kSnoopy, kOpt, 7042, 93364, 0xd8cd8b7cf918b4e2ULL, 0x19c78968a7562686ULL, 21437, 13482, 1493, 679, 768},
    {"raytrace", 8, kDir, kBase, 6804, 93160, 0xd8cd8b7cf918b4e2ULL, 0x79de112c05e48897ULL, 19972, 13294, 1485, 679, 766},
    {"raytrace", 8, kDir, kOpt, 6804, 93160, 0xd8cd8b7cf918b4e2ULL, 0x5ad04efc62f035c5ULL, 19972, 13294, 1485, 679, 766},
    {"fmm", 8, kSnoopy, kBase, 11209, 142772, 0xad2dd4f3fc931964ULL, 0xa54e46e342a30da0ULL, 31813, 74776, 2493, 682, 1230},
    {"fmm", 8, kSnoopy, kOpt, 11209, 142772, 0xad2dd4f3fc931964ULL, 0xab749cdc132aa7e9ULL, 31813, 74776, 2493, 682, 1233},
    {"fmm", 8, kDir, kBase, 10023, 133898, 0xad2dd4f3fc931964ULL, 0x396edab0ce937faaULL, 30065, 56613, 2194, 639, 1147},
    {"fmm", 8, kDir, kOpt, 10023, 133898, 0xad2dd4f3fc931964ULL, 0x2784f82d4cce531fULL, 30065, 56613, 2194, 639, 1152},
    {"fft", 64, kDir, kBase, 24297, 3557739, 0x71c4c4c11ccf8159ULL, 0x9afaa19be22077ecULL, 317477, 839531, 35054, 5318, 27235},
};
// clang-format on

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
rowText(const Golden &g)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"%s\", %u, %s, %s, %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
        "ULL, 0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 "},",
        g.kernel, g.cores, g.coherence == kSnoopy ? "kSnoopy" : "kDir",
        g.mode == kBase ? "kBase" : "kOpt", g.cycles, g.instructions,
        g.memoryFingerprint, g.rrlogHash, g.robFullStalls,
        g.squashedInstructions, g.mispredicts, g.l1Misses, g.intervals);
    return buf;
}

/** Record one case exactly as `rrsim record` does and measure it. */
Golden
recordCase(const Golden &want)
{
    Golden got = want;

    workloads::WorkloadParams wp;
    wp.numThreads = want.cores;
    wp.scale = 1;
    const workloads::Workload w = workloads::buildKernel(want.kernel, wp);

    sim::MachineConfig cfg;
    cfg.numCores = want.cores;
    cfg.coherence = want.coherence;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0].mode = want.mode;
    policies[0].maxIntervalInstructions = kIntervalCap;
    policies[0].recordDependencies = true;

    rnr::RecordingMeta meta;
    meta.kernel = want.kernel;
    meta.cores = want.cores;
    meta.scale = wp.scale;
    meta.intensity = wp.intensity;
    meta.workloadSeed = wp.seed;
    meta.machineSeed = cfg.seed;
    meta.mode = want.mode;
    meta.intervalCap = kIntervalCap;
    meta.deps = true;
    meta.coherence = want.coherence;

    const std::string path =
        ::testing::TempDir() + "rr_golden_" + want.kernel + "_" +
        std::to_string(want.cores) + sim::toString(want.coherence) +
        sim::toString(want.mode) + ".rrlog";
    {
        rnr::LogWriter writer(path, meta);
        machine::Machine m(cfg, w.program, policies);
        m.setIntervalSink(0, [&writer](sim::CoreId c,
                                       const rnr::IntervalRecord &iv) {
            writer.append(c, iv);
        });
        const machine::RecordingResult rec = m.run();

        rnr::RecordingSummary summary;
        summary.totalInstructions = rec.totalInstructions;
        summary.cycles = rec.cycles;
        summary.memoryFingerprint = rec.memoryFingerprint;
        for (std::size_t c = 0; c < rec.cores.size(); ++c) {
            summary.cores.push_back(rnr::CoreReplaySummary{
                rec.logs[0][c].intervals.size(),
                rec.cores[c].retiredInstructions,
                rec.cores[c].retiredLoads, rec.cores[c].loadValueHash});
        }
        writer.finish(summary);

        got.cycles = rec.cycles;
        got.instructions = rec.totalInstructions;
        got.memoryFingerprint = rec.memoryFingerprint;

        std::vector<const sim::StatSet *> sets;
        m.collectStats(sets);
        auto sum = [&sets](const char *name) {
            std::uint64_t total = 0;
            for (const sim::StatSet *s : sets)
                total += s->counterValue(name);
            return total;
        };
        got.robFullStalls = sum("rob_full_stalls");
        got.squashedInstructions = sum("squashed_instructions");
        got.mispredicts = sum("mispredicts");
        got.l1Misses = sum("l1_misses");
        got.intervals = sum("intervals");
    }

    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_FALSE(bytes.empty()) << path;
    got.rrlogHash = fnv1a(bytes);
    return got;
}

std::vector<Golden>
allCases()
{
    std::vector<Golden> cases;
    for (const std::string &k : workloads::kernelNames()) {
        for (const CoherenceKind coh : {kSnoopy, kDir}) {
            for (const RecorderMode mode : {kBase, kOpt})
                cases.push_back(Golden{k.c_str(), 8, coh, mode});
        }
    }
    cases.push_back(Golden{"fft", 64, kDir, kBase});
    return cases;
}

/** Names a case in gtest's listing (`GetParam() = fft/8c/snoopy/Base`). */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.kernel << "/" << g.cores << "c/" << sim::toString(g.coherence)
        << "/" << sim::toString(g.mode);
}

const Golden *
pinned(const Golden &c)
{
    for (const Golden &g : kGolden) {
        if (std::string(g.kernel) == c.kernel && g.cores == c.cores &&
            g.coherence == c.coherence && g.mode == c.mode)
            return &g;
    }
    return nullptr;
}

class RecordingGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(RecordingGolden, MatchesPinnedRecording)
{
    const Golden &c = GetParam();
    const Golden got = recordCase(c);
    const Golden *want = pinned(c);
    ASSERT_NE(want, nullptr) << "no pinned row; observed:\n"
                             << rowText(got);
    EXPECT_EQ(got.cycles, want->cycles);
    EXPECT_EQ(got.instructions, want->instructions);
    EXPECT_EQ(got.memoryFingerprint, want->memoryFingerprint);
    EXPECT_EQ(got.rrlogHash, want->rrlogHash);
    EXPECT_EQ(got.robFullStalls, want->robFullStalls);
    EXPECT_EQ(got.squashedInstructions, want->squashedInstructions);
    EXPECT_EQ(got.mispredicts, want->mispredicts);
    EXPECT_EQ(got.l1Misses, want->l1Misses);
    EXPECT_EQ(got.intervals, want->intervals);
    if (::testing::Test::HasFailure())
        ADD_FAILURE() << "observed:\n" << rowText(got);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RecordingGolden, ::testing::ValuesIn(allCases()),
    [](const auto &info) {
        const Golden &g = info.param;
        std::string name = std::string(g.kernel) + "_" +
                           std::to_string(g.cores) + "c_" +
                           sim::toString(g.coherence) + "_" +
                           sim::toString(g.mode);
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

} // namespace
