/**
 * @file
 * Decoder-backend micro-bench. Both backends build the same O(edges)
 * decoding graph, read memoized rows and solve on the same sparse
 * blossom; they differ in which pairs they offer: exact full-graph rows
 * (Dense), or radius-bounded rows with the K-nearest mask below the
 * burst threshold (Sparse, the default). Measures the cold path every
 * new deformed-patch shape pays — decoding-graph construction —
 * steady-state decode throughput per backend, and burst-syndrome
 * throughput (shots/sec vs fired-defect count, the Q3DE-style
 * cosmic-ray regime). Emits BENCH_decoder.json.
 *
 * Flags: --scale=S (shot budget), --dmax=N (default 13), --dburst=N
 * (default 11, burst-section distance), --json=DIR.
 * Exits non-zero unless Dense and the default Sparse decoder report
 * equal matched weight (MwpmScratch::lastWeight) on every sampled and
 * every burst shot, so CI smoke runs double as the cross-backend gate.
 * The default's prediction agreement rate with exact rows is reported
 * too — equal-weight matchings may differ in parity.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "burst_syndromes.hh"
#include "decode/mwpm.hh"
#include "lattice/rotated.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"
#include "util/rng.hh"

using namespace surf;
using namespace surf::benchutil;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const double s = scale(argc, argv);
    const int dmax = static_cast<int>(flagValue(argc, argv, "dmax", 13));
    const size_t shots = std::max<size_t>(
        64, static_cast<size_t>(flagValue(argc, argv, "shots", 1024) * s));
    const int build_reps = 5;
    JsonReport report(argc, argv, "decoder");

    header("MWPM backends: exact rows vs default rows");
    std::printf("%zu shots per distance, %d build reps, p=2e-3\n\n", shots,
                build_reps);
    std::printf("  d    nodes       build   exact sh/s  default sh/s\n");

    bool weights_equal = true;
    for (int d = 3; d <= dmax; d += 2) {
        MemorySpec spec;
        spec.rounds = d;
        NoiseParams noise;
        noise.p = 2e-3;
        const BuiltCircuit built =
            buildMemoryCircuit(squarePatch(d), spec, noise);
        const auto dem = buildDem(built.circuit, PauliType::Z);

        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < build_reps; ++r) {
            const MwpmDecoder probe(dem, 1);
            (void)probe;
        }
        const double build = secondsSince(t0) / build_reps;

        const MwpmDecoder exact(dem, 1, nullptr, MatchingBackend::Dense);
        const MwpmDecoder sparse(dem, 1, nullptr, MatchingBackend::Sparse);
        FrameSimulator sim(built.circuit, shots, 20240731);
        const SparseSyndromes syndromes = sim.sparseFiredDetectors();
        MwpmScratch se, sd;

        std::vector<uint8_t> exact_pred(shots);
        std::vector<int64_t> exact_weight(shots);
        t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < shots; ++i) {
            exact_pred[i] =
                exact.decode(syndromes.data(i), syndromes.count(i), se);
            exact_weight[i] = se.lastWeight;
        }
        const double exact_decode = secondsSince(t0);
        size_t default_disagree = 0, weight_mismatch = 0;
        t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < shots; ++i) {
            default_disagree +=
                exact_pred[i] !=
                sparse.decode(syndromes.data(i), syndromes.count(i), sd);
            weight_mismatch += sd.lastWeight != exact_weight[i];
        }
        const double default_decode = secondsSince(t0);
        if (weight_mismatch)
            weights_equal = false;

        const size_t nodes = exact.graph().numNodes();
        std::printf("%3d  %7zu  %7.4f ms  %11.0f  %12.0f%s\n", d, nodes,
                    1e3 * build, shots / std::max(1e-9, exact_decode),
                    shots / std::max(1e-9, default_decode),
                    weight_mismatch ? "  WEIGHT MISMATCH (BUG)" : "");

        const std::string suffix = "_d" + std::to_string(d);
        report.metric("build_ms" + suffix, 1e3 * build);
        report.metric("decode_shots_per_sec_exact" + suffix,
                      shots / std::max(1e-9, exact_decode));
        report.metric("decode_shots_per_sec_sparse" + suffix,
                      shots / std::max(1e-9, default_decode));
        report.metric("weight_mismatches" + suffix,
                      static_cast<double>(weight_mismatch));
        report.metric("default_agreement_rate" + suffix,
                      1.0 - static_cast<double>(default_disagree) / shots);
    }
    // ---- Burst syndromes: decode throughput vs fired-defect count ----
    // The regime Surf-Deformer's dynamic-defect scenarios produce:
    // cosmic-ray events fire large contiguous detector clusters. Both
    // backends build (memoized) Dijkstra rows per defect and solve the
    // pairs they witness; the default's bounded rows stop at twice the
    // boundary distance.
    const int dburst = static_cast<int>(flagValue(argc, argv, "dburst", 11));
    bool burst_weights_equal = true;
    {
        MemorySpec spec;
        spec.rounds = dburst;
        NoiseParams noise;
        noise.p = 2e-3;
        const BuiltCircuit built =
            buildMemoryCircuit(squarePatch(dburst), spec, noise);
        const auto dem = buildDem(built.circuit, PauliType::Z);
        const MwpmDecoder exact(dem, 1, nullptr, MatchingBackend::Dense);
        const MwpmDecoder rows(dem, 1, nullptr, MatchingBackend::Sparse);
        std::printf("\nburst syndromes at d=%d (cluster-fired detectors; "
                    "exact-vs-default weight gate on every shot):\n",
                    dburst);
        std::printf("    k    exact sh/s  default sh/s   vs exact\n");
        Rng rng(0xbadbeef);
        MwpmScratch se, sr;
        for (const size_t kk : {8u, 16u, 32u, 64u, 128u}) {
            const size_t reps = std::max<size_t>(
                4, static_cast<size_t>(s * 4096 / kk));
            std::vector<std::vector<uint32_t>> bursts;
            bursts.reserve(reps);
            for (size_t r = 0; r < reps; ++r)
                bursts.push_back(
                    burstCluster(dem, exact.graph(), kk, rng));
            std::vector<int64_t> exact_weight(reps);
            auto t0 = std::chrono::steady_clock::now();
            for (size_t r = 0; r < reps; ++r) {
                (void)exact.decode(bursts[r].data(), bursts[r].size(), se);
                exact_weight[r] = se.lastWeight;
            }
            const double t_exact = secondsSince(t0);
            size_t weight_mismatch = 0;
            t0 = std::chrono::steady_clock::now();
            for (size_t r = 0; r < reps; ++r) {
                (void)rows.decode(bursts[r].data(), bursts[r].size(), sr);
                weight_mismatch += sr.lastWeight != exact_weight[r];
            }
            const double t_rows = secondsSince(t0);
            if (weight_mismatch)
                burst_weights_equal = false;
            const double sps_exact = reps / std::max(1e-9, t_exact);
            const double sps_rows = reps / std::max(1e-9, t_rows);
            std::printf("  %3zu  %10.0f    %10.0f   %7.2fx%s\n", kk,
                        sps_exact, sps_rows,
                        sps_rows / std::max(1e-9, sps_exact),
                        weight_mismatch ? "  WEIGHT MISMATCH (BUG)" : "");
            const std::string suffix = "_k" + std::to_string(kk);
            report.metric("burst_shots_per_sec_exact" + suffix, sps_exact);
            report.metric("burst_shots_per_sec_rows" + suffix, sps_rows);
            report.metric("burst_weight_mismatches" + suffix,
                          static_cast<double>(weight_mismatch));
        }

        // ---- Row budget: resident row memory with and without a cap.
        // The default decoder above memoized a bounded row for every
        // defect the bursts touched; a budgeted decoder replays the
        // same load under an LRU cap.
        MwpmDecoder budgeted(dem, 1, nullptr, MatchingBackend::Sparse);
        budgeted.setRowBudget(64);
        {
            Rng rng2(0xbadbeef);
            MwpmScratch sq;
            for (const size_t kk : {8u, 16u, 32u, 64u, 128u}) {
                const size_t reps = std::max<size_t>(
                    4, static_cast<size_t>(s * 4096 / kk));
                for (size_t r = 0; r < reps; ++r) {
                    const auto b =
                        burstCluster(dem, exact.graph(), kk, rng2);
                    (void)budgeted.decode(b.data(), b.size(), sq);
                }
            }
        }
        const double unbudgeted_mib =
            static_cast<double>(rows.memoryBytes()) / (1 << 20);
        const double budgeted_mib =
            static_cast<double>(budgeted.memoryBytes()) / (1 << 20);
        std::printf("\nrow pool after the burst load: unbudgeted %zu rows "
                    "(%.1f MiB), budget=64 -> %zu resident (%.1f MiB, "
                    "%zu built)\n",
                    rows.graph().rowsResident(), unbudgeted_mib,
                    budgeted.graph().rowsResident(), budgeted_mib,
                    budgeted.graph().rowsBuilt());
        report.metric("rows_resident_unbudgeted",
                      static_cast<double>(rows.graph().rowsResident()));
        report.metric("rows_resident_budget64",
                      static_cast<double>(budgeted.graph().rowsResident()));
        report.metric("row_mem_mib_unbudgeted", unbudgeted_mib);
        report.metric("row_mem_mib_budget64", budgeted_mib);
    }

    const bool ok = weights_equal && burst_weights_equal;
    report.metric("weights_equal", weights_equal ? 1.0 : 0.0);
    report.metric("burst_weights_equal", burst_weights_equal ? 1.0 : 0.0);
    std::printf("\ndefault weight-equal to exact rows on every sampled "
                "shot: %s\n",
                weights_equal ? "yes" : "NO (BUG)");
    std::printf("default weight-equal to exact rows on every burst shot: "
                "%s\n",
                burst_weights_equal ? "yes" : "NO (BUG)");
    return ok ? 0 : 1;
}
