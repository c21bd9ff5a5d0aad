/**
 * @file
 * surf_perfbench: runs one workload of the deformation-pipeline
 * benchmark and prints one JSON report as the last line of stdout.
 *
 *   surf_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--smoke] [--min-rounds N]
 *                  [--scratch DIR] [--spans FILE]
 *
 * Untraced (--trace 0): rounds through the library entry points until
 * the next one would end past S seconds (at least --min-rounds). Traced
 * (--trace 1): pairs of one untraced and one traced round, at least one,
 * so the report carries the tracing overhead and the physics of both
 * drivers side by side; the traced spans go to FILE and their per-layer
 * aggregate into the report.
 * The report holds raw per-round data; perfbench/run.py turns it into
 * metrics and applies the correctness gate.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "bench.hh"

using namespace perfbench;

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
phaseJson(const Phase &p)
{
    return "{\"seconds\":" + num(p.seconds) +
           ",\"shots\":" + std::to_string(p.counts.shots) +
           ",\"failures\":" + std::to_string(p.counts.failures) +
           ",\"epochs\":" + std::to_string(p.counts.epochs) +
           ",\"dead\":" + std::to_string(p.counts.deadTimelines) +
           ",\"hits\":" + std::to_string(p.cacheHits) +
           ",\"misses\":" + std::to_string(p.cacheMisses) +
           ",\"restored_segments\":" + std::to_string(p.restoredSegments) +
           ",\"restored_rows\":" + std::to_string(p.restoredRows) +
           ",\"snapshot_bytes\":" + std::to_string(p.snapshotBytes) +
           ",\"error\":" + jsonString(p.error) + "}";
}

std::string
roundsJson(const std::vector<Round> &rounds)
{
    std::string out = "[";
    for (size_t i = 0; i < rounds.size(); ++i) {
        out += (i ? ",{\"setup\":" : "{\"setup\":") +
               phaseJson(rounds[i].setup) + ",\"timed\":[";
        for (size_t j = 0; j < rounds[i].timed.size(); ++j)
            out += (j ? "," : "") + phaseJson(rounds[i].timed[j]);
        out += "]}";
    }
    return out + "]";
}

std::string
blocksJson(const std::vector<BlockInfo> &blocks)
{
    std::string out = "[";
    for (size_t i = 0; i < blocks.size(); ++i) {
        const BlockInfo &b = blocks[i];
        out += (i ? ",{" : "{") + std::string("\"seed\":") +
               std::to_string(b.seed) +
               ",\"events\":" + std::to_string(b.events) +
               ",\"active_timelines\":" + std::to_string(b.active) +
               ",\"residual_load\":" + num(b.residualLoad) +
               ",\"new_shapes\":" + std::to_string(b.newShapes) +
               ",\"new_shape_volume\":" + num(b.newVolume) + "}";
    }
    return out + "]";
}

bool
failed(const Round &r)
{
    if (!r.setup.error.empty() || r.timed.empty())
        return true;
    for (const Phase &p : r.timed)
        if (!p.error.empty())
            return true;
    return false;
}

void
logRound(const std::string &name, const char *what, size_t index,
         const Round &r)
{
    std::string timed;
    for (const Phase &p : r.timed)
        timed += " " + num(p.seconds);
    std::fprintf(stderr, "  %s %s %zu: setup %.3f s, timed%s s\n",
                 name.c_str(), what, index, r.setup.seconds, timed.c_str());
}

/** Layer spans carry a module prefix; the rest ("setup", "timed",
 *  "timeline", "call") are driver containers whose self time is the
 *  unspanned remainder. */
bool
isLayerSpan(const std::string &name)
{
    for (const char *p : {"scenario.", "defects.", "sim.", "decode.",
                          "persist."})
        if (name.rfind(p, 0) == 0)
            return true;
    return false;
}

struct Aggregate
{
    std::map<std::string, double> self; ///< per span name, timed passes
    double timedWall = 0.0;
    size_t timedPasses = 0;
};

Aggregate
aggregate(const std::vector<Span> &spans)
{
    Aggregate agg;
    std::vector<char> in_timed(spans.size(), 0);
    std::vector<double> child(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        in_timed[i] = s.parent < 0 ? std::strcmp(s.name, "timed") == 0
                                   : in_timed[s.parent];
        if (s.parent >= 0)
            child[s.parent] += s.end - s.start;
        else if (in_timed[i]) {
            agg.timedWall += s.end - s.start;
            ++agg.timedPasses;
        }
    }
    for (size_t i = 0; i < spans.size(); ++i)
        if (in_timed[i])
            agg.self[spans[i].name] +=
                spans[i].end - spans[i].start - child[i];
    return agg;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\"fields\":[\"name\",\"start_s\",\"end_s\","
                    "\"parent\"],\"spans\":[\n");
    for (size_t i = 0; i < spans.size(); ++i)
        std::fprintf(f, "%s[\"%s\",%.9f,%.9f,%d]\n", i ? "," : "",
                     spans[i].name, spans[i].start, spans[i].end,
                     spans[i].parent);
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

/** Per-layer metrics of the traced rounds, per timed pass. */
std::string
layersJson(const Aggregate &agg, const LayerCounts &lc, size_t passes,
           double untracedWall, size_t workers)
{
    const double r = static_cast<double>(std::max<size_t>(passes, 1));
    auto self = [&](const char *name) {
        auto it = agg.self.find(name);
        return it == agg.self.end() ? 0.0 : it->second / r;
    };
    double covered = 0.0;
    std::map<std::string, double> remainder;
    for (const auto &[name, secs] : agg.self) {
        if (isLayerSpan(name))
            covered += secs;
        else
            remainder[name] += secs;
    }
    const uint64_t calls = lc.rowsCalls + lc.blossomCalls + lc.ufCalls;
    const uint64_t lookups = lc.cacheHits + lc.cacheMisses;
    uint64_t fired_n = 0, fired_sum = 0;
    for (size_t k = 0; k < lc.firedHist.size(); ++k) {
        fired_n += lc.firedHist[k];
        fired_sum += k * lc.firedHist[k];
    }
    size_t p99 = 0;
    for (uint64_t cum = 0; p99 < lc.firedHist.size(); ++p99) {
        cum += lc.firedHist[p99];
        if (fired_n && cum * 100 >= fired_n * 99)
            break;
    }
    auto share = [](uint64_t a, uint64_t b) {
        return b ? static_cast<double>(a) / b : 0.0;
    };
    const double worker_total = lc.workerBusy + lc.workerIdle;
    std::vector<std::pair<std::string, double>> m = {
        {"scenario.plan_s", self("scenario.plan")},
        {"scenario.cache_s", self("scenario.cache")},
        {"scenario.pool_s", self("scenario.pool")},
        {"scenario.cache_hits", lc.cacheHits / r},
        {"scenario.cache_misses", lc.cacheMisses / r},
        {"scenario.cache_hit_ratio", share(lc.cacheHits, lookups)},
        {"scenario.cache_build_s", lc.cacheBuildSeconds / r},
        {"scenario.cache_resident_mib", lc.cacheResidentMiB},
        {"scenario.cache_entries", static_cast<double>(lc.cacheEntries)},
        {"defects.sample_s", self("defects.sample")},
        {"sim.stitch_s", self("sim.stitch")},
        {"sim.segment_s", self("sim.segment")},
        {"sim.dem_s", self("sim.dem")},
        {"sim.dem_edges", lc.demEdges / r},
        {"sim.sample_s", self("sim.sample")},
        {"decode.graph_build_s", self("decode.graph_build")},
        {"decode.rows_built", lc.rowsBuilt / r},
        {"decode.rows_s", self("decode.rows")},
        {"decode.rows_calls", lc.rowsCalls / r},
        {"decode.blossom_s", self("decode.blossom")},
        {"decode.blossom_calls", lc.blossomCalls / r},
        {"decode.uf_s", self("decode.uf")},
        {"decode.uf_calls", lc.ufCalls / r},
        {"decode.loop_s", self("decode.loop")},
        {"decode.rows_share", share(lc.rowsCalls, calls)},
        {"decode.blossom_share", share(lc.blossomCalls, calls)},
        {"decode.uf_share", share(lc.ufCalls, calls)},
        {"decode.pool_idle_frac",
         worker_total > 0 ? lc.workerIdle / worker_total : 0.0},
        {"persist.restore_s", self("persist.restore")},
        {"persist.save_s", self("persist.save")},
        {"persist.checkpoint_s", self("persist.checkpoint")},
        {"persist.restored_rows", lc.restoredRows / r},
        {"persist.crc_mib_per_s", lc.crcMiBPerSec},
        {"persist.snapshot_mib", lc.snapshotBytes / 1048576.0},
        {"input.fired_mean", share(fired_sum, fired_n)},
        {"input.fired_p99", static_cast<double>(p99)},
        {"trace.coverage", agg.timedWall > 0 ? covered / agg.timedWall : 0},
        {"trace.overhead",
         untracedWall > 0 ? agg.timedWall / untracedWall : 0.0},
    };
    std::string out = "{";
    for (size_t i = 0; i < m.size(); ++i)
        out += (i ? ",\"" : "\"") + m[i].first + "\":" + num(m[i].second);
    out += "},\"unspanned_s\":{";
    bool first = true;
    for (const auto &[name, secs] : remainder) {
        out += (first ? "\"" : ",\"") + name + "\":" + num(secs / r);
        first = false;
    }
    out += "},\"workers\":" + std::to_string(workers);
    return out;
}

const char *
argValue(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    // The library reads these at run time; the benchmark's inputs must
    // come from its own arguments only.
    for (const char *env :
         {"SURF_FAULT_PLAN", "SURF_PERSIST_DIR", "SURF_MATCHING_BACKEND"})
        ::unsetenv(env);

    const std::string name = argValue(argc, argv, "--workload", "");
    const uint64_t seed =
        std::strtoull(argValue(argc, argv, "--seed", "1"), nullptr, 10);
    const double seconds =
        std::strtod(argValue(argc, argv, "--seconds", "10"), nullptr);
    const bool traced =
        std::strcmp(argValue(argc, argv, "--trace", "0"), "1") == 0;
    const bool smoke = hasFlag(argc, argv, "--smoke");
    const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    // Fixed decode worker count for every workload, no larger than nproc.
    const size_t threads = std::min<size_t>(4, nproc);
    const size_t min_rounds = std::strtoull(
        argValue(argc, argv, "--min-rounds", "3"), nullptr, 10);
    const std::string scratch =
        argValue(argc, argv, "--scratch", "perfbench-scratch");
    const std::string spans_path = argValue(argc, argv, "--spans", "");

    Workload w;
    if (!makeWorkload(name, seed, smoke, threads, w)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     name.c_str());
        return 2;
    }

    std::vector<Round> rounds, traced_rounds;
    Tracer tracer;
    LayerCounts lc;
    double untraced_wall = 0.0;
    const auto t0 = Clock::now();
    double last_round = 0.0;
    double peak_rss_mib = 0.0;
    // Measure for `seconds`: stop before a round that would overrun.
    const size_t need = traced ? 1 : std::max<size_t>(min_rounds, 1);
    while (rounds.size() < need ||
           secondsSince(t0) + last_round <= seconds) {
        const auto r0 = Clock::now();
        rounds.push_back(runUntracedRound(w, scratch));
        if (rounds.size() == 1) {
            // Peak of one round from a fresh process: later rounds only
            // add allocator fragmentation, which varies with their count.
            rusage ru{};
            ::getrusage(RUSAGE_SELF, &ru);
            peak_rss_mib = ru.ru_maxrss / 1024.0;
        }
        const Round &u = rounds.back();
        logRound(name, "round", rounds.size(), u);
        if (failed(u))
            break;
        if (traced) {
            for (const Phase &p : u.timed)
                untraced_wall += p.seconds;
            traced_rounds.push_back(runTracedRound(w, scratch, tracer, lc));
            logRound(name, "traced", traced_rounds.size(),
                     traced_rounds.back());
            if (failed(traced_rounds.back()))
                break;
        }
        last_round = secondsSince(r0);
    }

    std::string report = "{\"workload\":" + jsonString(name) +
                         ",\"seed\":" + std::to_string(seed) +
                         ",\"smoke\":" + (smoke ? "true" : "false") +
                         ",\"trace\":" + (traced ? "1" : "0") +
                         ",\"threads\":" + std::to_string(threads) +
                         ",\"nproc\":" + std::to_string(nproc) +
                         ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
                         ",\"build_type\":" +
                         jsonString(PERFBENCH_BUILD_TYPE) +
                         ",\"peak_rss_mib\":" + num(peak_rss_mib) +
                         ",\"blocks\":" + blocksJson(w.blocks) +
                         ",\"rounds\":" + roundsJson(rounds);
    if (traced) {
        const Aggregate agg = aggregate(tracer.spans());
        report += ",\"traced_rounds\":" + roundsJson(traced_rounds) +
                  ",\"layers\":" +
                  layersJson(agg, lc, agg.timedPasses, untraced_wall,
                             threads);
        if (!spans_path.empty()) {
            writeSpans(spans_path, tracer.spans());
            report += ",\"spans_file\":" + jsonString(spans_path);
        }
    }
    std::printf("%s}\n", report.c_str());
    return 0;
}
