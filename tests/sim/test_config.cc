#include <gtest/gtest.h>

#include <string>

#include "sim/config.hh"

namespace
{

using namespace rr::sim;

TEST(Config, DefaultsMatchPaperTable1)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.core.robEntries, 176u);
    EXPECT_EQ(cfg.core.lsqEntries, 128u);
    EXPECT_EQ(cfg.core.numLdStUnits, 2u);
    EXPECT_EQ(cfg.core.issueWidth, 4u);
    EXPECT_EQ(cfg.l1.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.l1.associativity, 4u);
    EXPECT_EQ(cfg.l1.hitLatency, 2u);
    EXPECT_EQ(cfg.l2.sizeBytes, 512u * 1024); // per core
    EXPECT_EQ(cfg.l2.associativity, 16u);
    EXPECT_EQ(cfg.uncore.memLatency, 150u);
    EXPECT_EQ(kLineBytes, 32u);
}

TEST(Config, RecorderDefaultsMatchPaperTable1)
{
    RecorderConfig rc;
    EXPECT_EQ(rc.traqEntries, 176u);
    EXPECT_EQ(rc.signatureBanks, 4u);
    EXPECT_EQ(rc.signatureBitsPerBank, 256u);
    EXPECT_EQ(rc.snoopTableArrays, 2u);
    EXPECT_EQ(rc.snoopTableEntries, 64u);
    EXPECT_EQ(rc.nmiBits, 4u);
}

TEST(Config, L1SetCount)
{
    MachineConfig cfg;
    // 64KB / 32B lines / 4 ways = 512 sets.
    EXPECT_EQ(cfg.l1.numSets(), 512u);
}

TEST(Config, TotalL2Scales)
{
    MachineConfig cfg;
    cfg.numCores = 16;
    EXPECT_EQ(cfg.totalL2Bytes(), 16u * 512 * 1024);
}

TEST(Config, ValidateAcceptsDefaults)
{
    MachineConfig cfg;
    cfg.validate(); // must not exit
    cfg.numCores = 4;
    cfg.validate();
}

/** validate() must throw ConfigError naming @p what. */
void
expectConfigError(const MachineConfig &cfg, const std::string &what)
{
    try {
        cfg.validate();
        ADD_FAILURE() << "no ConfigError for '" << what << "'";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(ConfigDeathTest, RejectsZeroCores)
{
    MachineConfig cfg;
    cfg.numCores = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    expectConfigError(cfg, "core");
}

TEST(ConfigDeathTest, RejectsNonPow2Sets)
{
    MachineConfig cfg;
    cfg.l1.sizeBytes = 96 * 1024; // 768 sets: not a power of two
    EXPECT_THROW(cfg.validate(), ConfigError);
    expectConfigError(cfg, "sets");
}

TEST(Config, RejectsDirectoryBeyond64Cores)
{
    MachineConfig cfg;
    cfg.coherence = CoherenceKind::Directory;
    cfg.numCores = 64;
    cfg.validate();
    cfg.numCores = 65;
    expectConfigError(cfg, "at most 64 cores");
}

TEST(Config, LineHelpers)
{
    EXPECT_EQ(lineAddr(0x1234), 0x1220u);
    EXPECT_EQ(wordAddr(0x1234), 0x1230u);
    EXPECT_TRUE(sameLine(0x1220, 0x123f));
    EXPECT_FALSE(sameLine(0x121f, 0x1220));
}

TEST(Config, RecorderModeNames)
{
    EXPECT_STREQ(toString(RecorderMode::Base), "Base");
    EXPECT_STREQ(toString(RecorderMode::Opt), "Opt");
}

} // namespace
