/**
 * @file
 * Tests for the warm-start persistence layer (src/persist): the
 * checksummed snapshot container, the DeformedCodeCache snapshot
 * round-trip, the paranoid loader's fuzz matrix (truncation at every
 * record boundary, single-bit flips, stale versions, semantic
 * mismatches — no crash, Status surfaced, results bit-identical),
 * kill/resume checkpointing at several thread counts, and the
 * persist-dir creation failure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "decode/mwpm.hh"
#include "faultinject/fault_plan.hh"
#include "persist/cache_snapshot.hh"
#include "persist/checkpoint.hh"
#include "persist/snapshot.hh"
#include "scenario/scenario_experiment.hh"

namespace surf {
namespace {

/** Fresh temp directory, removed (best effort) on destruction. */
struct TempDir
{
    std::string path;
    TempDir()
    {
        char tmpl[] = "/tmp/surf_persist_XXXXXX";
        const char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "/tmp";
    }
    ~TempDir()
    {
        // Only files we created live here; remove then rmdir.
        const std::string cmd = "rm -rf '" + path + "'";
        [[maybe_unused]] int rc = ::system(cmd.c_str());
    }
    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

FaultPlan
mustPlan(const std::string &spec)
{
    StatusOr<FaultPlan> plan = parseFaultPlan(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().str();
    return plan.ok() ? *plan : FaultPlan{};
}

std::string
slurp(const std::string &path)
{
    StatusOr<std::string> bytes = readFileBytes(path);
    EXPECT_TRUE(bytes.ok()) << bytes.status().str();
    return bytes.ok() ? std::move(*bytes) : std::string();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/** Multi-epoch sampled scenario with several timelines (mirrors the
 *  fault-injection suite: this seed and rate guarantee deformation
 *  epochs, so the cache holds real segments and timelines). */
ScenarioConfig
sampledConfig()
{
    ScenarioConfig sc;
    sc.timeline.strategy = Strategy::SurfDeformer;
    sc.timeline.d = 5;
    sc.timeline.deltaD = 2;
    sc.timeline.horizonRounds = 60;
    sc.timeline.windowRounds = 10;
    sc.timeline.maxEpochRounds = 10;
    sc.defectModel.durationSec = 20e-6;
    sc.defectModel.regionDiameter = 2;
    sc.eventRateScale = 150000.0;
    sc.numTimelines = 4;
    sc.noise.p = 2e-3;
    sc.maxShotsPerTimeline = 128;
    sc.batchShots = 64;
    sc.seed = 99;
    return sc;
}

void
expectSameResults(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.totalEpochs, b.totalEpochs);
    EXPECT_EQ(a.deadTimelines, b.deadTimelines);
    ASSERT_EQ(a.timelines.size(), b.timelines.size());
    for (size_t t = 0; t < a.timelines.size(); ++t) {
        const TimelineStats &x = a.timelines[t];
        const TimelineStats &y = b.timelines[t];
        EXPECT_EQ(x.shots, y.shots) << "timeline " << t;
        EXPECT_EQ(x.failures, y.failures) << "timeline " << t;
        EXPECT_EQ(x.events, y.events) << "timeline " << t;
        EXPECT_EQ(x.dead, y.dead) << "timeline " << t;
        ASSERT_EQ(x.epochs.size(), y.epochs.size()) << "timeline " << t;
        for (size_t e = 0; e < x.epochs.size(); ++e) {
            EXPECT_EQ(x.epochs[e].shots, y.epochs[e].shots);
            EXPECT_EQ(x.epochs[e].mismatches, y.epochs[e].mismatches);
            EXPECT_EQ(x.epochs[e].rounds, y.epochs[e].rounds);
            EXPECT_EQ(x.epochs[e].numDetectors, y.epochs[e].numDetectors);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot container primitives.
// ---------------------------------------------------------------------

TEST(SnapshotContainer, ByteRoundTrip)
{
    std::string buf;
    ByteWriter w(buf);
    w.u8(7);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.i64(-1234567890123LL);
    w.f64(2.25);
    w.str("hello");
    const uint8_t raw[3] = {1, 2, 3};
    w.bytes(raw, sizeof raw);

    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123LL);
    EXPECT_EQ(r.f64(), 2.25);
    EXPECT_EQ(r.str(), "hello");
    const char *got = r.bytes(sizeof raw);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(std::memcmp(got, raw, sizeof raw), 0);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);

    // Over-read latches !ok() instead of walking off the buffer.
    (void)r.u64();
    EXPECT_FALSE(r.ok());
}

TEST(SnapshotContainer, WriterReaderRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("basic.snap");

    SnapshotWriter w;
    {
        std::string &payload = w.beginRecord(1);
        ByteWriter bw(payload);
        bw.u64(111);
        w.endRecord();
    }
    {
        std::string &payload = w.beginRecord(2);
        ByteWriter bw(payload);
        bw.str("second record");
        w.endRecord();
    }
    ASSERT_TRUE(w.finish(path).ok());

    StatusOr<SnapshotReader> reader = SnapshotReader::open(slurp(path));
    ASSERT_TRUE(reader.ok()) << reader.status().str();
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    ASSERT_TRUE(reader->next(type, payload));
    EXPECT_EQ(type, 1);
    EXPECT_EQ(payload.u64(), 111u);
    ASSERT_TRUE(reader->next(type, payload));
    EXPECT_EQ(type, 2);
    EXPECT_EQ(payload.str(), "second record");
    EXPECT_FALSE(reader->next(type, payload));
    EXPECT_FALSE(reader->truncated());
    EXPECT_EQ(reader->recordsRead(), 2u);
}

TEST(SnapshotContainer, HeaderValidation)
{
    TempDir dir;
    const std::string path = dir.file("hdr.snap");
    SnapshotWriter w;
    {
        std::string &payload = w.beginRecord(1);
        ByteWriter bw(payload);
        bw.u64(1);
        w.endRecord();
    }
    ASSERT_TRUE(w.finish(path).ok());
    const std::string good = slurp(path);
    ASSERT_GE(good.size(), kSnapshotHeaderBytes);

    // Too short for a header.
    for (size_t n = 0; n < kSnapshotHeaderBytes; ++n) {
        StatusOr<SnapshotReader> r = SnapshotReader::open(good.substr(0, n));
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kCorruptSnapshot);
    }

    // Bad magic.
    std::string bad = good;
    bad[0] ^= 0xff;
    EXPECT_EQ(SnapshotReader::open(bad).status().code(),
              StatusCode::kCorruptSnapshot);

    // Version skew with a *recomputed* header CRC: must fail on the
    // version check, not the checksum (a well-formed alien file).
    bad = good;
    const uint32_t alien = 0xFFFFFFFFu;
    std::memcpy(&bad[8], &alien, sizeof alien);
    uint32_t crc = crc32(bad.data(), 16);
    std::memcpy(&bad[16], &crc, sizeof crc);
    StatusOr<SnapshotReader> stale = SnapshotReader::open(bad);
    EXPECT_FALSE(stale.ok());
    EXPECT_EQ(stale.status().code(), StatusCode::kCorruptSnapshot);

    // Header CRC damage alone.
    bad = good;
    bad[17] ^= 0x01;
    EXPECT_EQ(SnapshotReader::open(bad).status().code(),
              StatusCode::kCorruptSnapshot);

    // A flipped payload bit fails that record's CRC: the reader reports
    // a truncated (prefix-only) stream instead of crashing or lying.
    bad = good;
    bad[kSnapshotHeaderBytes + 10] ^= 0x40;
    StatusOr<SnapshotReader> flipped = SnapshotReader::open(bad);
    ASSERT_TRUE(flipped.ok());
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    EXPECT_FALSE(flipped->next(type, payload));
    EXPECT_TRUE(flipped->truncated());
}

// ---------------------------------------------------------------------
// Cache snapshot round-trip + warm-restart bit-identity.
// ---------------------------------------------------------------------

TEST(CacheSnapshot, WarmRestartBitIdenticalToCold)
{
    TempDir dir;
    ScenarioConfig cold = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(cold);
    ASSERT_TRUE(truth.ok()) << truth.status().str();

    // Pass 1: cold with persistence — writes cache.snap on completion.
    ScenarioConfig persisted = cold;
    persisted.persistDir = dir.path;
    StatusOr<ScenarioResult> pass1 = runScenarioExperimentChecked(persisted);
    ASSERT_TRUE(pass1.ok()) << pass1.status().str();
    expectSameResults(*truth, *pass1);
    EXPECT_EQ(pass1->persistRestoredSegments, 0u);
    EXPECT_GT(pass1->persistSnapshotBytes, 0u);
    EXPECT_TRUE(snapshotFileExists(dir.file("cache.snap")));

    // Pass 2: warm restart — restores segments and stays bit-identical.
    StatusOr<ScenarioResult> pass2 = runScenarioExperimentChecked(persisted);
    ASSERT_TRUE(pass2.ok()) << pass2.status().str();
    expectSameResults(*truth, *pass2);
    EXPECT_GT(pass2->persistRestoredSegments, 0u);
    EXPECT_EQ(pass2->persistRestoredRows, 0u);
    EXPECT_EQ(pass2->ledger.snapRecoveries, 0u);
    EXPECT_EQ(pass2->ledger.snapRestoredEntries,
              pass2->persistRestoredSegments +
                  pass2->persistRestoredTimelines);
}

TEST(CacheSnapshot, DirectSaveLoadRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");

    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    StatusOr<ScenarioResult> run = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(run.ok()) << run.status().str();

    StatusOr<SnapshotSaveStats> saved = saveCacheSnapshot(cache, path);
    ASSERT_TRUE(saved.ok()) << saved.status().str();
    EXPECT_GT(saved->segments, 0u);
    EXPECT_GT(saved->fileBytes, 0u);

    DeformedCodeCache fresh;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(fresh, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    EXPECT_EQ(loaded->segments, saved->segments);
    EXPECT_EQ(loaded->timelines, saved->timelines);
    EXPECT_EQ(loaded->rejectedRecords, 0u);
    EXPECT_FALSE(loaded->truncated);
    // Snapshots carry no rows: every restored graph starts empty.
    fresh.forEachSegment([](const std::string &, const CachedSegment &seg,
                            double) {
        EXPECT_EQ(seg.mwpm->graph().rowsResident(), 0u);
    });

    // The warm cache reproduces the run bit-identically with zero misses
    // on the segments it restored.
    ScenarioConfig warm = sampledConfig();
    warm.cache = &fresh;
    StatusOr<ScenarioResult> rerun = runScenarioExperimentChecked(warm);
    ASSERT_TRUE(rerun.ok()) << rerun.status().str();
    expectSameResults(*run, *rerun);
    EXPECT_GT(rerun->cacheHits, 0u);
}

TEST(CacheSnapshot, RestoreIsInsertIfAbsent)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");
    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    ASSERT_TRUE(runScenarioExperimentChecked(sc).ok());
    ASSERT_TRUE(saveCacheSnapshot(cache, path).ok());

    // Restoring on top of the same resident cache inserts nothing.
    StatusOr<SnapshotRestoreStats> again = loadCacheSnapshot(cache, path);
    ASSERT_TRUE(again.ok()) << again.status().str();
    EXPECT_EQ(again->segments, 0u);
    EXPECT_EQ(again->timelines, 0u);
}

// ---------------------------------------------------------------------
// Loader fuzz matrix.
// ---------------------------------------------------------------------

/** Byte offsets of every record boundary in a snapshot container. */
std::vector<size_t>
recordBoundaries(const std::string &bytes)
{
    std::vector<size_t> offs;
    size_t pos = kSnapshotHeaderBytes;
    offs.push_back(pos);
    while (pos + 1 + 8 + 4 <= bytes.size()) {
        uint64_t len = 0;
        std::memcpy(&len, bytes.data() + pos + 1, sizeof len);
        pos += 1 + 8 + len + 4;
        if (pos > bytes.size())
            break;
        offs.push_back(pos);
    }
    return offs;
}

TEST(LoaderFuzz, TruncationAtEveryRecordBoundary)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");
    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(saveCacheSnapshot(cache, path).ok());
    const std::string good = slurp(path);

    std::vector<size_t> cuts = recordBoundaries(good);
    ASSERT_GE(cuts.size(), 2u);
    // Mid-record cuts too: one byte past each boundary and halfway into
    // each record.
    const size_t n_bounds = cuts.size();
    for (size_t i = 0; i + 1 < n_bounds; ++i) {
        cuts.push_back(cuts[i] + 1);
        cuts.push_back(cuts[i] + (cuts[i + 1] - cuts[i]) / 2);
    }
    cuts.push_back(0);
    cuts.push_back(kSnapshotHeaderBytes / 2);

    const std::string cut_path = dir.file("cut.snap");
    for (size_t cut : cuts) {
        if (cut > good.size())
            continue;
        spit(cut_path, good.substr(0, cut));
        DeformedCodeCache fresh;
        StatusOr<SnapshotRestoreStats> loaded =
            loadCacheSnapshot(fresh, cut_path);
        // Never crashes. Header cuts are whole-file rejections. A cut
        // exactly on a record boundary is indistinguishable from a
        // shorter valid snapshot (clean EOF); a mid-record cut flags
        // truncation and keeps the valid prefix.
        if (cut < kSnapshotHeaderBytes)
            EXPECT_FALSE(loaded.ok());
        // Whatever was restored still yields bit-identical physics.
        ScenarioConfig warm = sampledConfig();
        warm.cache = &fresh;
        StatusOr<ScenarioResult> rerun = runScenarioExperimentChecked(warm);
        ASSERT_TRUE(rerun.ok()) << "cut at " << cut;
        expectSameResults(*truth, *rerun);
    }
}

TEST(LoaderFuzz, SingleBitFlips)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");
    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(saveCacheSnapshot(cache, path).ok());
    const std::string good = slurp(path);

    // Deterministic sample of byte positions across the whole file
    // (every byte would take minutes on a large snapshot).
    const std::string flip_path = dir.file("flip.snap");
    const size_t stride = good.size() < 512 ? 1 : good.size() / 257;
    for (size_t pos = 0; pos < good.size(); pos += stride) {
        std::string bad = good;
        bad[pos] ^= static_cast<char>(1u << (pos % 8));
        spit(flip_path, bad);
        DeformedCodeCache fresh;
        StatusOr<SnapshotRestoreStats> loaded =
            loadCacheSnapshot(fresh, flip_path);
        // Either the whole file is rejected (header damage) or the
        // stream loads with the damaged record dropped — never a crash,
        // never a wrong answer.
        ScenarioConfig warm = sampledConfig();
        warm.cache = &fresh;
        StatusOr<ScenarioResult> rerun = runScenarioExperimentChecked(warm);
        ASSERT_TRUE(rerun.ok()) << "flip at " << pos;
        expectSameResults(*truth, *rerun);
        (void)loaded;
    }
}

TEST(LoaderFuzz, SemanticMismatchRejectedByDigest)
{
    // A CRC-valid segment record whose payload belongs to different
    // code: loader must reject it on semantic validation, not trust it.
    TempDir dir;
    const std::string path = dir.file("forged.snap");
    SnapshotWriter w;
    {
        std::string &payload = w.beginRecord(1); // kRecSegment
        ByteWriter bw(payload);
        bw.str("forged-key");
        bw.u8(9); // invalid tag (> 1): semantic validation must fire
        w.endRecord();
    }
    ASSERT_TRUE(w.finish(path).ok());

    DeformedCodeCache fresh;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(fresh, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    EXPECT_EQ(loaded->segments, 0u);
    EXPECT_GE(loaded->rejectedRecords, 1u);
}

TEST(LoaderFuzz, UnknownRecordTypeSkipped)
{
    TempDir dir;
    const std::string path = dir.file("future.snap");
    SnapshotWriter w;
    {
        std::string &payload = w.beginRecord(200); // from the future
        ByteWriter bw(payload);
        bw.u64(0);
        w.endRecord();
    }
    ASSERT_TRUE(w.finish(path).ok());
    DeformedCodeCache fresh;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(fresh, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    EXPECT_EQ(loaded->segments, 0u);
}

TEST(LoaderFuzz, StaleVersionViaFaultInjection)
{
    // snap.stale stamps an alien format version WITH a recomputed header
    // CRC, so the loader's version check (not the checksum) must fire.
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;
    sc.faults = mustPlan("seed=5;snap.stale=1");
    StatusOr<ScenarioResult> pass1 = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(pass1.ok()) << pass1.status().str();

    // The file on disk is stale now; the next run must cold-start and
    // count a recovery, with identical physics.
    ScenarioConfig clean = sampledConfig();
    clean.persistDir = dir.path;
    StatusOr<ScenarioResult> pass2 = runScenarioExperimentChecked(clean);
    ASSERT_TRUE(pass2.ok()) << pass2.status().str();
    EXPECT_EQ(pass2->persistRestoredSegments, 0u);
    EXPECT_GE(pass2->ledger.snapRecoveries, 1u);
    expectSameResults(*pass1, *pass2);
}

/** Restamp a snapshot container's payload ABI version, with a matching
 *  header CRC, so the loader's version check (not the checksum) fires —
 *  a well-formed file written by a build of another ABI. */
std::string
withAbiVersion(std::string bytes, uint32_t abi)
{
    EXPECT_GE(bytes.size(), kSnapshotHeaderBytes);
    // Header: magic[8] | format u32 at 8 | abi u32 at 12 | crc32 of
    // bytes [0, 16) at 16.
    std::memcpy(&bytes[12], &abi, sizeof abi);
    const uint32_t c = crc32(bytes.data(), 16);
    std::memcpy(&bytes[16], &c, sizeof c);
    return bytes;
}

TEST(LoaderFuzz, AbiV3SnapshotAndCheckpointColdStart)
{
    // ABI v4 dropped the ladder's blossom stage from the checkpointed
    // ledger. Files a v3 build left behind must each degrade to a
    // counted cold start with unchanged results.
    ASSERT_EQ(kSnapshotAbiVersion, 4u);
    const StatusOr<ScenarioResult> truth =
        runScenarioExperimentChecked(sampledConfig());
    ASSERT_TRUE(truth.ok()) << truth.status().str();

    // A v3 cache snapshot: nothing is restored, one recovery counted.
    {
        TempDir dir;
        ScenarioConfig sc = sampledConfig();
        sc.persistDir = dir.path;
        ASSERT_TRUE(runScenarioExperimentChecked(sc).ok());
        const std::string snap = dir.file("cache.snap");
        spit(snap, withAbiVersion(slurp(snap), 3));
        DeformedCodeCache probe;
        const StatusOr<SnapshotRestoreStats> direct =
            loadCacheSnapshot(probe, snap);
        ASSERT_FALSE(direct.ok());
        EXPECT_EQ(direct.status().code(), StatusCode::kCorruptSnapshot);

        const StatusOr<ScenarioResult> run = runScenarioExperimentChecked(sc);
        ASSERT_TRUE(run.ok()) << run.status().str();
        EXPECT_EQ(run->persistRestoredSegments, 0u);
        EXPECT_EQ(run->ledger.snapRecoveries, 1u);
        expectSameResults(*truth, *run);
    }

    // A v3 checkpoint of a killed run: nothing is resumed, one recovery
    // counted.
    {
        TempDir dir;
        ScenarioConfig killed = sampledConfig();
        killed.persistDir = dir.path;
        killed.faults = mustPlan("seed=3;snap.kill=2");
        ASSERT_FALSE(runScenarioExperimentChecked(killed).ok());
        char name[64];
        std::snprintf(name, sizeof name, "run-%016llx.ckpt",
                      static_cast<unsigned long long>(
                          scenarioConfigSignature(killed)));
        const std::string ckpt = dir.file(name);
        ASSERT_TRUE(snapshotFileExists(ckpt));
        spit(ckpt, withAbiVersion(slurp(ckpt), 3));
        const StatusOr<RunCheckpoint> direct = loadRunCheckpoint(ckpt);
        ASSERT_FALSE(direct.ok());
        EXPECT_EQ(direct.status().code(), StatusCode::kCorruptSnapshot);

        ScenarioConfig resumed = sampledConfig();
        resumed.persistDir = dir.path;
        const StatusOr<ScenarioResult> run =
            runScenarioExperimentChecked(resumed);
        ASSERT_TRUE(run.ok()) << run.status().str();
        EXPECT_EQ(run->resumedTimelines, 0u);
        EXPECT_EQ(run->ledger.snapRecoveries, 1u);
        expectSameResults(*truth, *run);
    }
}

TEST(LoaderFuzz, RetiredBackendRecordRejected)
{
    // A CRC-valid segment record naming backend 2 (the retired
    // SparseBlossom) is rejected and counted; the rest of the snapshot
    // restores and results stay bit-identical.
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;
    const StatusOr<ScenarioResult> pass1 = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(pass1.ok()) << pass1.status().str();
    const std::string snap = dir.file("cache.snap");
    std::string bytes = slurp(snap);
    DeformedCodeCache intact;
    const StatusOr<SnapshotRestoreStats> before =
        loadCacheSnapshot(intact, snap);
    ASSERT_TRUE(before.ok()) << before.status().str();
    ASSERT_EQ(before->rejectedRecords, 0u);
    ASSERT_GT(before->segments, 0u);

    // Record: type u8 | len u64 | payload | crc32 of type..payload. A
    // segment payload (type 1) opens with its key (u64 length + bytes),
    // the tag byte and the backend byte.
    const std::vector<size_t> offs = recordBoundaries(bytes);
    bool patched = false;
    for (size_t i = 0; i + 1 < offs.size() && !patched; ++i) {
        const size_t pos = offs[i];
        if (bytes[pos] != 1)
            continue;
        uint64_t len = 0, key_len = 0;
        std::memcpy(&len, bytes.data() + pos + 1, sizeof len);
        std::memcpy(&key_len, bytes.data() + pos + 9, sizeof key_len);
        const size_t backend_at = pos + 9 + 8 + key_len + 1;
        ASSERT_EQ(static_cast<uint8_t>(bytes[backend_at]),
                  static_cast<uint8_t>(MatchingBackend::Sparse));
        bytes[backend_at] =
            static_cast<char>(MatchingBackend::SparseBlossom);
        const uint32_t c = crc32(bytes.data() + pos, 1 + 8 + len);
        std::memcpy(&bytes[pos + 9 + len], &c, sizeof c);
        patched = true;
    }
    ASSERT_TRUE(patched);
    spit(snap, bytes);

    DeformedCodeCache fresh;
    const StatusOr<SnapshotRestoreStats> after =
        loadCacheSnapshot(fresh, snap);
    ASSERT_TRUE(after.ok()) << after.status().str();
    EXPECT_GE(after->rejectedRecords, 1u);
    EXPECT_EQ(after->segments, before->segments - 1);
    EXPECT_FALSE(after->truncated);

    const StatusOr<ScenarioResult> pass2 = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(pass2.ok()) << pass2.status().str();
    EXPECT_EQ(pass2->ledger.snapRejectedRecords, after->rejectedRecords);
    EXPECT_EQ(pass2->ledger.snapRecoveries, 0u);
    EXPECT_EQ(pass2->persistRestoredSegments, before->segments - 1);
    expectSameResults(*pass1, *pass2);
}

TEST(LoaderFuzz, TornAndBitflipFaultSites)
{
    // snap.torn + snap.bitflip.p corrupt the written snapshot; every
    // subsequent run survives with bit-identical results.
    ScenarioConfig base = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(base);
    ASSERT_TRUE(truth.ok());

    for (const char *plan :
         {"seed=7;snap.torn=0.6", "seed=7;snap.bitflip.p=2e-4",
          "seed=7;snap.torn=0.97;snap.bitflip.p=1e-3"}) {
        TempDir dir;
        ScenarioConfig sc = base;
        sc.persistDir = dir.path;
        sc.faults = mustPlan(plan);
        StatusOr<ScenarioResult> pass1 = runScenarioExperimentChecked(sc);
        ASSERT_TRUE(pass1.ok()) << plan << ": " << pass1.status().str();
        expectSameResults(*truth, *pass1);

        ScenarioConfig clean = base;
        clean.persistDir = dir.path;
        StatusOr<ScenarioResult> pass2 =
            runScenarioExperimentChecked(clean);
        ASSERT_TRUE(pass2.ok()) << plan << ": " << pass2.status().str();
        expectSameResults(*truth, *pass2);
    }
}

// ---------------------------------------------------------------------
// Kill/resume checkpointing.
// ---------------------------------------------------------------------

TEST(Checkpoint, KillAndResumeBitIdenticalAcrossThreadCounts)
{
    ScenarioConfig base = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(base);
    ASSERT_TRUE(truth.ok());

    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
        TempDir dir;
        ScenarioConfig killed = base;
        killed.threads = threads;
        killed.persistDir = dir.path;
        killed.faults = mustPlan("seed=3;snap.kill=2");
        StatusOr<ScenarioResult> crash = runScenarioExperimentChecked(killed);
        ASSERT_FALSE(crash.ok());
        EXPECT_EQ(crash.status().code(), StatusCode::kAborted)
            << crash.status().str();

        // Resume: same physics config. snap.* clauses (and with them the
        // whole now-inert fault plan) are signature-exempt, so dropping
        // the kill plan entirely still matches the checkpoint.
        ScenarioConfig resumed = base;
        resumed.threads = threads;
        resumed.persistDir = dir.path;
        StatusOr<ScenarioResult> done = runScenarioExperimentChecked(resumed);
        ASSERT_TRUE(done.ok()) << done.status().str();
        EXPECT_EQ(done->resumedTimelines, 2u) << "threads " << threads;
        expectSameResults(*truth, *done);

        // Success unlinks the checkpoint; a third run starts fresh.
        StatusOr<ScenarioResult> third = runScenarioExperimentChecked(resumed);
        ASSERT_TRUE(third.ok());
        EXPECT_EQ(third->resumedTimelines, 0u);
        expectSameResults(*truth, *third);
    }
}

TEST(Checkpoint, StaleSignatureIgnored)
{
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;

    // Plant a checkpoint at this config's path but stamped with a
    // different signature (a hash-collision / hand-copied file): the
    // engine must ignore it, not resume from foreign results.
    const uint64_t sig = scenarioConfigSignature(sc);
    char name[64];
    std::snprintf(name, sizeof name, "run-%016llx.ckpt",
                  static_cast<unsigned long long>(sig));
    std::vector<TimelineStats> foreign(2);
    foreign[0].shots = 12345;
    ASSERT_TRUE(saveRunCheckpoint(dir.file(name), sig ^ 1, foreign).ok());

    StatusOr<ScenarioResult> run = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(run.ok()) << run.status().str();
    EXPECT_EQ(run->resumedTimelines, 0u);

    ScenarioConfig plain = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(plain);
    ASSERT_TRUE(truth.ok());
    expectSameResults(*truth, *run);
}

TEST(Checkpoint, TornCheckpointResumesFromPrefix)
{
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;
    sc.faults = mustPlan("seed=3;snap.kill=3");
    ASSERT_FALSE(runScenarioExperimentChecked(sc).ok());

    const uint64_t sig = scenarioConfigSignature(sc);
    char name[64];
    std::snprintf(name, sizeof name, "run-%016llx.ckpt",
                  static_cast<unsigned long long>(sig));
    const std::string ckpt = dir.file(name);
    const std::string good = slurp(ckpt);

    // Tear the tail off: the valid prefix is an earlier checkpoint and
    // must resume (fewer timelines) with identical final results.
    spit(ckpt, good.substr(0, good.size() - good.size() / 3));
    ScenarioConfig resumed = sampledConfig();
    resumed.persistDir = dir.path;
    StatusOr<ScenarioResult> done = runScenarioExperimentChecked(resumed);
    ASSERT_TRUE(done.ok()) << done.status().str();
    EXPECT_GT(done->resumedTimelines, 0u);
    EXPECT_LT(done->resumedTimelines, 3u);

    StatusOr<ScenarioResult> truth =
        runScenarioExperimentChecked(sampledConfig());
    ASSERT_TRUE(truth.ok());
    expectSameResults(*truth, *done);
}

TEST(PersistDir, UncreatablePersistDirIsInvalidArgument)
{
    // A persist dir below a regular file cannot be created: the run
    // fails up front with INVALID_ARGUMENT and writes nothing.
    TempDir dir;
    const std::string blocker = dir.file("blocker");
    spit(blocker, "not a directory");
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = blocker + "/persist";
    StatusOr<ScenarioResult> run = runScenarioExperimentChecked(sc);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().str().find("persist dir"), std::string::npos)
        << run.status().str();

    EXPECT_EQ(slurp(blocker), "not a directory");
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.path),
                            std::filesystem::directory_iterator()),
              1);
}

} // namespace
} // namespace surf
