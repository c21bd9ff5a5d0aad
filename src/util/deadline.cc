#include "util/deadline.hh"

#include <bit>
#include <cstdio>

namespace surf {

const char *
decodeStageName(DecodeStage stage)
{
    switch (stage) {
      case kStageRows:
        return "rows";
      case kStageUnionFind:
      default:
        return "uf";
    }
}

void
LatencyHistogram::add(uint64_t ns)
{
    size_t b = static_cast<size_t>(std::bit_width(ns)); // 0 -> bucket 0
    if (b >= kBuckets)
        b = kBuckets - 1;
    ++buckets[b];
    ++samples;
    totalNs += ns;
    if (ns > maxNs)
        maxNs = ns;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t b = 0; b < kBuckets; ++b)
        buckets[b] += other.buckets[b];
    samples += other.samples;
    totalNs += other.totalNs;
    if (other.maxNs > maxNs)
        maxNs = other.maxNs;
}

double
LatencyHistogram::meanNs() const
{
    return samples ? static_cast<double>(totalNs) /
                         static_cast<double>(samples)
                   : 0.0;
}

uint64_t
LatencyHistogram::quantileUpperBoundNs(double q) const
{
    if (samples == 0)
        return 0;
    const double target = q * static_cast<double>(samples);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        seen += buckets[b];
        if (static_cast<double>(seen) >= target)
            return b ? (uint64_t{1} << b) : 1;
    }
    return maxNs;
}

void
DegradationLedger::record(const ShotLadderTrace &trace)
{
    ++ladderDecodes;
    if (trace.timedOut)
        ++degradedDecodes;
    for (uint8_t s = 0; s < kNumDecodeStages; ++s) {
        const uint8_t bit = uint8_t{1} << s;
        if (!(trace.attempted & bit))
            continue;
        ++stageAttempts[s];
        if (trace.timedOut & bit)
            ++stageTimeouts[s];
        stageLatency[s].add(trace.ns[s]);
    }
    ++stageCompleted[trace.answer];
}

void
DegradationLedger::merge(const DegradationLedger &other)
{
    ladderDecodes += other.ladderDecodes;
    degradedDecodes += other.degradedDecodes;
    for (size_t s = 0; s < kNumDecodeStages; ++s) {
        stageAttempts[s] += other.stageAttempts[s];
        stageTimeouts[s] += other.stageTimeouts[s];
        stageCompleted[s] += other.stageCompleted[s];
        stageLatency[s].merge(other.stageLatency[s]);
    }
    injectedStalls += other.injectedStalls;
    injectedBursts += other.injectedBursts;
    injectedBurstDetectors += other.injectedBurstDetectors;
    cacheStorms += other.cacheStorms;
    snapRestoredEntries += other.snapRestoredEntries;
    snapRejectedRecords += other.snapRejectedRecords;
    snapRecoveries += other.snapRecoveries;
    fabDeadPatches += other.fabDeadPatches;
    fabAdaptedPatches += other.fabAdaptedPatches;
    fabDistanceLoss += other.fabDistanceLoss;
}

std::string
DegradationLedger::summary() const
{
    char line[256];
    std::string out;
    std::snprintf(line, sizeof line,
                  "ladder decodes %llu (degraded %llu); injected: %llu "
                  "stalls, %llu bursts (+%llu detectors), %llu cache "
                  "storms\n",
                  static_cast<unsigned long long>(ladderDecodes),
                  static_cast<unsigned long long>(degradedDecodes),
                  static_cast<unsigned long long>(injectedStalls),
                  static_cast<unsigned long long>(injectedBursts),
                  static_cast<unsigned long long>(injectedBurstDetectors),
                  static_cast<unsigned long long>(cacheStorms));
    out += line;
    if (fabDeadPatches || fabAdaptedPatches) {
        std::snprintf(
            line, sizeof line,
            "fabrication: %llu adapted patches (%llu layers of distance "
            "lost), %llu dead patches run as yield failures\n",
            static_cast<unsigned long long>(fabAdaptedPatches),
            static_cast<unsigned long long>(fabDistanceLoss),
            static_cast<unsigned long long>(fabDeadPatches));
        out += line;
    }
    if (snapRestoredEntries || snapRejectedRecords || snapRecoveries) {
        std::snprintf(
            line, sizeof line,
            "persistence: %llu entries restored, %llu records rejected, "
            "%llu cold-rebuild recoveries\n",
            static_cast<unsigned long long>(snapRestoredEntries),
            static_cast<unsigned long long>(snapRejectedRecords),
            static_cast<unsigned long long>(snapRecoveries));
        out += line;
    }
    for (uint8_t s = 0; s < kNumDecodeStages; ++s) {
        if (!stageAttempts[s])
            continue;
        std::snprintf(
            line, sizeof line,
            "  %-7s attempts %-8llu timeouts %-8llu answers %-8llu "
            "mean %.3f ms  p99<=%.3f ms  max %.3f ms\n",
            decodeStageName(static_cast<DecodeStage>(s)),
            static_cast<unsigned long long>(stageAttempts[s]),
            static_cast<unsigned long long>(stageTimeouts[s]),
            static_cast<unsigned long long>(stageCompleted[s]),
            stageLatency[s].meanNs() / 1e6,
            static_cast<double>(stageLatency[s].quantileUpperBoundNs(0.99)) /
                1e6,
            static_cast<double>(stageLatency[s].maxNs) / 1e6);
        out += line;
    }
    return out;
}

} // namespace surf
