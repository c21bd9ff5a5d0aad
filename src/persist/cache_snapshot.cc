#include "persist/cache_snapshot.hh"

#include <cmath>
#include <utility>

#include <unistd.h>

#include "persist/snapshot.hh"

namespace surf {

namespace {

enum RecordType : uint8_t
{
    kRecSegment = 1,
    kRecTimeline = 2,
};

constexpr uint8_t kMaxOp = static_cast<uint8_t>(Op::FrameProbe);
/** Highest live backend: records naming the retired SparseBlossom are
 *  rejected like any other out-of-range value. */
constexpr uint8_t kMaxBackend = static_cast<uint8_t>(MatchingBackend::Sparse);

void
writeCircuit(ByteWriter &w, const Circuit &c)
{
    const auto &instrs = c.instructions();
    w.u64(instrs.size());
    for (const Instruction &ins : instrs) {
        w.u8(static_cast<uint8_t>(ins.op));
        w.f64(ins.arg);
        w.u32(ins.aux);
        w.u64(ins.targets.size());
        for (uint32_t t : ins.targets)
            w.u32(t);
    }
}

/** Replay a serialized circuit through Circuit::appendRaw, which
 *  re-validates every instruction against the bookkeeping built so far —
 *  a detector referencing a future measurement, an odd pairwise list or
 *  a bad noise probability rejects the record, never aborts. */
bool
readCircuit(ByteReader &r, Circuit &out)
{
    const uint64_t n = r.u64();
    // Each instruction occupies >= 21 bytes, so a count beyond the
    // remaining payload is a lie; checking it first bounds the loop.
    if (!r.ok() || n > r.remaining())
        return false;
    for (uint64_t i = 0; i < n; ++i) {
        Instruction ins;
        const uint8_t op = r.u8();
        ins.arg = r.f64();
        ins.aux = r.u32();
        const uint64_t nt = r.u64();
        if (!r.ok() || op > kMaxOp || nt * 4 > r.remaining())
            return false;
        ins.op = static_cast<Op>(op);
        ins.targets.reserve(static_cast<size_t>(nt));
        for (uint64_t t = 0; t < nt; ++t)
            ins.targets.push_back(r.u32());
        if (!r.ok() || !out.appendRaw(std::move(ins)))
            return false;
    }
    return true;
}

void
writeDem(ByteWriter &w, const DetectorErrorModel &dem)
{
    w.u64(dem.numDetectors);
    w.bytes(dem.detectorTag.data(), dem.detectorTag.size());
    for (int t = 0; t < 2; ++t) {
        w.u64(dem.edges[t].size());
        for (const DemEdge &e : dem.edges[t]) {
            w.i64(e.a);
            w.i64(e.b);
            w.f64(e.p);
            w.u8(e.flipsObs ? 1 : 0);
        }
    }
    w.f64(dem.undetectableObsProb);
    w.u64(dem.decomposedComponents);
}

/** Read + validate a DEM. The decoding-graph constructors assert on
 *  malformed models (foreign detector ids), so every id, tag byte and
 *  probability is checked here before any constructor runs. */
bool
readDem(ByteReader &r, DetectorErrorModel &dem)
{
    const uint64_t n_det = r.u64();
    if (!r.ok() || n_det > r.remaining())
        return false;
    dem.numDetectors = static_cast<size_t>(n_det);
    const char *tags = r.bytes(static_cast<size_t>(n_det));
    if (!tags)
        return false;
    dem.detectorTag.resize(static_cast<size_t>(n_det));
    for (uint64_t i = 0; i < n_det; ++i) {
        const auto tag = static_cast<uint8_t>(tags[i]);
        if (tag > 1)
            return false;
        dem.detectorTag[i] = tag;
    }
    for (int t = 0; t < 2; ++t) {
        const uint64_t n_edges = r.u64();
        if (!r.ok() || n_edges > r.remaining())
            return false;
        dem.edges[t].reserve(static_cast<size_t>(n_edges));
        for (uint64_t i = 0; i < n_edges; ++i) {
            DemEdge e;
            const int64_t a = r.i64();
            const int64_t b = r.i64();
            e.p = r.f64();
            e.flipsObs = r.u8() != 0;
            if (!r.ok())
                return false;
            // Endpoints: boundary (-1) or a detector of this graph's tag.
            for (int64_t id : {a, b}) {
                if (id < -1 || id >= static_cast<int64_t>(n_det))
                    return false;
                if (id >= 0 && dem.detectorTag[static_cast<size_t>(id)] !=
                                   static_cast<uint8_t>(t))
                    return false;
            }
            if (!(std::isfinite(e.p) && e.p >= 0.0 && e.p <= 1.0))
                return false;
            e.a = static_cast<int>(a);
            e.b = static_cast<int>(b);
            dem.edges[t].push_back(e);
        }
    }
    dem.undetectableObsProb = r.f64();
    const uint64_t decomposed = r.u64();
    if (!r.ok() ||
        !(std::isfinite(dem.undetectableObsProb) &&
          dem.undetectableObsProb >= 0.0 && dem.undetectableObsProb <= 1.0))
        return false;
    dem.decomposedComponents = static_cast<size_t>(decomposed);
    return true;
}

void
writeSegmentRecord(SnapshotWriter &snap, const std::string &key,
                   const CachedSegment &seg, double cost)
{
    const DecodingGraph &g = seg.mwpm->graph();
    std::string &payload = snap.beginRecord(kRecSegment);
    ByteWriter w(payload);
    w.str(key);
    w.u8(g.tag());
    w.u8(static_cast<uint8_t>(g.backend()));
    w.u64(g.rowBudget());
    writeCircuit(w, seg.circuit);
    writeDem(w, seg.dem);
    w.u64(g.csrDigest());
    w.f64(cost);
    snap.endRecord();
}

/** Restore one segment record; false on rejection (nothing inserted). */
bool
restoreSegmentRecord(ByteReader &r, DeformedCodeCache &cache,
                     SnapshotRestoreStats &stats)
{
    const std::string key = r.str();
    const uint8_t tag = r.u8();
    const uint8_t backend = r.u8();
    const uint64_t row_budget = r.u64();
    if (!r.ok() || key.empty() || tag > 1 || backend > kMaxBackend)
        return false;

    CachedSegment cs;
    if (!readCircuit(r, cs.circuit))
        return false;
    if (!readDem(r, cs.dem))
        return false;
    // Cross-field invariant the engine relies on: the standalone circuit
    // and its DEM agree on the detector count.
    if (cs.circuit.numDetectors() != cs.dem.numDetectors)
        return false;

    const uint64_t digest = r.u64();
    const double cost = r.f64();
    if (!r.ok() || !(std::isfinite(cost) && cost >= 0.0))
        return false;

    // Rebuild the decoders from the validated DEM (O(edges)), then
    // verify the rebuilt graph's CSR digest against the recorded one: a
    // payload that passed its CRC but describes a different code — the
    // semantic-signature mismatch — is rejected here, before the entry
    // is cached. The graph starts with no rows; decode builds them on
    // demand.
    cs.mwpm = std::make_unique<MwpmDecoder>(
        cs.dem, tag, nullptr, static_cast<MatchingBackend>(backend));
    cs.uf = std::make_unique<UnionFindDecoder>(cs.dem, tag);
    if (cs.mwpm->graph().csrDigest() != digest)
        return false;
    if (row_budget)
        cs.mwpm->setRowBudget(static_cast<size_t>(row_budget));

    if (cache.restoreSegment(key, std::move(cs), cost))
        ++stats.segments;
    return true;
}

void
writeTimelineRecord(SnapshotWriter &snap, const std::string &key,
                    const CachedTimeline &tl, double cost)
{
    std::string &payload = snap.beginRecord(kRecTimeline);
    ByteWriter w(payload);
    w.str(key);
    w.u8(tl.alive ? 1 : 0);
    writeCircuit(w, tl.circuit);
    w.u64(tl.epochs.size());
    for (const CachedTimelineEpoch &ep : tl.epochs) {
        w.u64(ep.startRound);
        w.u64(ep.rounds);
        w.u64(ep.distX);
        w.u64(ep.distZ);
        w.u64(ep.activeDefects);
        w.u64(ep.detBegin);
        w.u64(ep.detEnd);
        w.str(ep.segKey);
    }
    w.f64(cost);
    snap.endRecord();
}

bool
restoreTimelineRecord(ByteReader &r, DeformedCodeCache &cache,
                      SnapshotRestoreStats &stats)
{
    const std::string key = r.str();
    const uint8_t alive = r.u8();
    if (!r.ok() || key.empty() || alive > 1)
        return false;
    CachedTimeline tl;
    tl.alive = alive != 0;
    if (!readCircuit(r, tl.circuit))
        return false;
    const uint64_t n_epochs = r.u64();
    if (!r.ok() || n_epochs > r.remaining())
        return false;
    if (!tl.alive && n_epochs != 0)
        return false; // dead timelines carry no epochs by construction
    tl.epochs.reserve(static_cast<size_t>(n_epochs));
    size_t prev_end = 0;
    for (uint64_t i = 0; i < n_epochs; ++i) {
        CachedTimelineEpoch ep;
        ep.startRound = r.u64();
        ep.rounds = r.u64();
        ep.distX = static_cast<size_t>(r.u64());
        ep.distZ = static_cast<size_t>(r.u64());
        ep.activeDefects = static_cast<size_t>(r.u64());
        ep.detBegin = static_cast<size_t>(r.u64());
        ep.detEnd = static_cast<size_t>(r.u64());
        ep.segKey = r.str();
        if (!r.ok() || ep.segKey.empty())
            return false;
        // The decode loop slices the concatenated fired list by these
        // ranges: they must be monotone and inside the circuit.
        if (ep.detBegin < prev_end || ep.detEnd < ep.detBegin ||
            ep.detEnd > tl.circuit.numDetectors())
            return false;
        prev_end = ep.detEnd;
        // Re-pin the segment through the cache (segments restore first);
        // a missing or mismatched segment rejects the whole timeline.
        ep.seg = cache.peekSegment(ep.segKey);
        if (!ep.seg ||
            ep.seg->dem.numDetectors != ep.detEnd - ep.detBegin)
            return false;
        tl.epochs.push_back(std::move(ep));
    }
    const double cost = r.f64();
    if (!r.ok() || !(std::isfinite(cost) && cost >= 0.0))
        return false;
    if (cache.restoreTimeline(key, std::move(tl), cost))
        ++stats.timelines;
    return true;
}

} // namespace

bool
snapshotFileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

StatusOr<SnapshotSaveStats>
saveCacheSnapshot(const DeformedCodeCache &cache, const std::string &path,
                  const FaultInjector *inject, uint64_t faultSalt)
{
    SnapshotSaveStats stats;
    SnapshotWriter snap;
    // Segments first: timeline restore resolves its epoch pins against
    // segments already in the cache, in one forward pass.
    cache.forEachSegment([&](const std::string &key, const CachedSegment &seg,
                             double cost) {
        writeSegmentRecord(snap, key, seg, cost);
        ++stats.segments;
    });
    cache.forEachTimeline([&](const std::string &key,
                              const CachedTimeline &tl, double cost) {
        // A timeline whose pinned segment lost its own cache entry (an
        // eviction orphan) would dangle on restore — skip it; the next
        // run rebuilds that timeline against restored segments.
        for (const CachedTimelineEpoch &ep : tl.epochs)
            if (ep.segKey.empty() || !cache.peekSegment(ep.segKey)) {
                ++stats.skippedTimelines;
                return;
            }
        writeTimelineRecord(snap, key, tl, cost);
        ++stats.timelines;
    });
    stats.fileBytes = snap.bytesBuffered();
    if (Status s = snap.finish(path, inject, faultSalt); !s.ok())
        return s;
    return stats;
}

StatusOr<SnapshotRestoreStats>
loadCacheSnapshot(DeformedCodeCache &cache, const std::string &path)
{
    StatusOr<std::string> bytes = readFileBytes(path);
    if (!bytes.ok())
        return bytes.status();
    StatusOr<SnapshotReader> reader = SnapshotReader::open(std::move(*bytes));
    if (!reader.ok())
        return reader.status();
    SnapshotReader &snap = reader.value();

    SnapshotRestoreStats stats;
    stats.fileBytes = snap.fileBytes();
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    while (snap.next(type, payload)) {
        bool ok;
        switch (type) {
          case kRecSegment:
            ok = restoreSegmentRecord(payload, cache, stats);
            break;
          case kRecTimeline:
            ok = restoreTimelineRecord(payload, cache, stats);
            break;
          default:
            ok = false; // unknown record type: a future writer's data
            break;
        }
        if (!ok)
            ++stats.rejectedRecords;
    }
    stats.truncated = snap.truncated();
    return stats;
}

} // namespace surf
