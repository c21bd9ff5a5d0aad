#include "decode/graph.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace surf {

namespace {

double
edgeWeight(double p)
{
    // Clamp into (0, 0.5) so weights stay positive and finite.
    const double q = std::clamp(p, 1e-14, 0.499999);
    return std::log((1.0 - q) / q);
}

} // namespace

DecodingGraph::DecodingGraph(const DetectorErrorModel &dem, uint8_t tag,
                             MatchingBackend backend)
    : backend_(backend), tag_(tag)
{
    local_of_.assign(dem.numDetectors, -1);
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        if (dem.detectorTag[d] == tag) {
            local_of_[d] = static_cast<int>(global_of_.size());
            global_of_.push_back(d);
        }
    }
    const int bnode = boundaryNode();
    // Build per-node adjacency in DEM edge order (both directions of an
    // edge appended as encountered), then flatten to CSR. The neighbor
    // order fixes the Dijkstra relaxation order, so every row's
    // tie-broken shortest-path witnesses are reproducible.
    struct Dir
    {
        int to;
        double w;
        bool obs;
    };
    std::vector<std::vector<Dir>> adj(numNodes() + 1);
    size_t n_dirs = 0;
    for (const DemEdge &e : dem.edges[tag]) {
        const int a = (e.a < 0) ? bnode : local_of_[static_cast<size_t>(e.a)];
        const int b = (e.b < 0) ? bnode : local_of_[static_cast<size_t>(e.b)];
        SURF_ASSERT(a >= 0 && b >= 0, "edge references a foreign detector");
        if (a == b)
            continue;
        const double w = edgeWeight(e.p);
        adj[static_cast<size_t>(a)].push_back({b, w, e.flipsObs});
        adj[static_cast<size_t>(b)].push_back({a, w, e.flipsObs});
        n_dirs += 2;
    }
    csr_off_.resize(numNodes() + 2);
    csr_to_.resize(n_dirs);
    csr_w_.resize(n_dirs);
    csr_obs_.resize(n_dirs);
    uint32_t off = 0;
    for (size_t v = 0; v <= numNodes(); ++v) {
        csr_off_[v] = off;
        for (const Dir &d : adj[v]) {
            csr_to_[off] = d.to;
            csr_w_[off] = d.w;
            csr_obs_[off] = d.obs ? 1 : 0;
            ++off;
        }
    }
    csr_off_[numNodes() + 1] = off;

    rows_ = std::vector<std::atomic<std::shared_ptr<const Row>>>(numNodes());
    fast_rows_ = std::vector<std::atomic<const Row *>>(numNodes());
    row_stamp_ = std::vector<std::atomic<uint64_t>>(numNodes());
}

DecodingGraph::~DecodingGraph() = default;

int
DecodingGraph::localOf(uint32_t global_det) const
{
    SURF_ASSERT(global_det < local_of_.size());
    return local_of_[global_det];
}

size_t
DecodingGraph::memoryBytes() const
{
    const size_t row_bytes =
        (numNodes() + 1) * (sizeof(float) + 1) + sizeof(Row);
    size_t retired;
    {
        std::lock_guard<std::mutex> lock(evict_mutex_);
        retired = retired_.size();
    }
    return global_of_.capacity() * sizeof(uint32_t) +
           local_of_.capacity() * sizeof(int) +
           csr_off_.capacity() * sizeof(uint32_t) +
           csr_to_.capacity() * sizeof(int) +
           csr_w_.capacity() * sizeof(double) + csr_obs_.capacity() +
           rows_.size() * (sizeof(rows_[0]) + sizeof(fast_rows_[0]) +
                           sizeof(row_stamp_[0])) +
           (rows_resident_.load(std::memory_order_relaxed) + retired) *
               row_bytes;
}

void
DecodingGraph::setRowBudget(size_t max_rows)
{
    {
        std::lock_guard<std::mutex> lock(evict_mutex_);
        if (max_rows)
            // Sticky: readers must hold owned handles from here on
            // (eviction may free rows), so the raw fast path closes
            // for good. Must happen before any decode worker races.
            row_budget_ever_.store(true, std::memory_order_release);
        row_budget_ = max_rows;
    }
    enforceRowBudget();
}

void
DecodingGraph::enforceRowBudget() const
{
    std::lock_guard<std::mutex> lock(evict_mutex_);
    if (!row_budget_ ||
        rows_resident_.load(std::memory_order_relaxed) <= row_budget_)
        return;
    // Collect resident slots oldest-first and drop until within budget.
    // Readers holding shared_ptrs keep their rows alive; a dropped row
    // is rebuilt (identically) on its next use.
    std::vector<std::pair<uint64_t, int>> by_age;
    by_age.reserve(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i)
        if (rows_[i].load(std::memory_order_acquire))
            by_age.push_back(
                {row_stamp_[i].load(std::memory_order_relaxed),
                 static_cast<int>(i)});
    std::sort(by_age.begin(), by_age.end());
    for (const auto &[stamp, idx] : by_age) {
        if (rows_resident_.load(std::memory_order_relaxed) <= row_budget_)
            break;
        if (rows_[static_cast<size_t>(idx)].exchange(
                nullptr, std::memory_order_acq_rel)) {
            fast_rows_[static_cast<size_t>(idx)].store(
                nullptr, std::memory_order_release);
            rows_resident_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
}

DecodingGraph::Row *
DecodingGraph::buildRow(int src, bool exact, DijkstraScratch &sc) const
{
    // Pairs whose true distance sits within the quantization margin of
    // the radius bound must stay inside a bounded row, because an
    // integer-tied edge can still appear in an optimal matching.
    constexpr double kTieMargin = kWeightTieMargin;
    const size_t n = numNodes() + 1;
    auto *row = new Row;
    row->dist.assign(n, std::numeric_limits<float>::infinity());
    row->par.assign(n, 0);
    double cutoff = kInf;
    sc.bind(n);
    if (++sc.cur == 0) {
        std::fill(sc.gen.begin(), sc.gen.end(), 0);
        sc.cur = 1;
    }
    const int bnode = boundaryNode();
    using Item = std::pair<double, int>;
    const auto by_dist = std::greater<Item>();
    auto &heap = sc.heap;
    heap.clear();
    sc.dist[static_cast<size_t>(src)] = 0.0;
    sc.par[static_cast<size_t>(src)] = 0;
    sc.gen[static_cast<size_t>(src)] = sc.cur;
    heap.push_back({0.0, src});
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), by_dist);
        const auto [dv, v] = heap.back();
        heap.pop_back();
        if (dv > cutoff)
            break; // heap min beyond the radius: nothing closer remains
        const auto vi = static_cast<size_t>(v);
        if (dv > sc.dist[vi])
            continue; // stale entry: v already settled closer
        row->dist[vi] = static_cast<float>(sc.dist[vi]);
        row->par[vi] = sc.par[vi];
        if (v == bnode && !exact)
            cutoff = 2.0 * dv + kTieMargin;
        const uint32_t b0 = csr_off_[vi], b1 = csr_off_[vi + 1];
        for (uint32_t i = b0; i < b1; ++i) {
            const auto to = static_cast<size_t>(csr_to_[i]);
            const double nd = dv + csr_w_[i];
            if (nd > cutoff)
                continue; // positive weights: can't help nodes in radius
            if (sc.gen[to] != sc.cur || nd < sc.dist[to] - 1e-12) {
                sc.gen[to] = sc.cur;
                sc.dist[to] = nd;
                sc.par[to] = sc.par[vi] ^ csr_obs_[i];
                heap.push_back({nd, csr_to_[i]});
                std::push_heap(heap.begin(), heap.end(), by_dist);
            }
        }
    }
    row->radius = cutoff;
    return row;
}

std::shared_ptr<const DecodingGraph::Row>
DecodingGraph::row(int src, bool exact, DijkstraScratch &sc) const
{
    SURF_ASSERT(static_cast<size_t>(src) < rows_.size(),
                "row queries are a defect-node facility");
    auto &slot = rows_[static_cast<size_t>(src)];
    // Unbudgeted graphs (the default) never evict, so warm hits read a
    // raw mirror pointer with no refcount traffic and return a
    // non-owning handle — the same lock-free fast path the raw-pointer
    // design had. Rows displaced by exactness upgrades are retired (not
    // freed) to keep those non-owning readers safe.
    if (!row_budget_ever_.load(std::memory_order_acquire)) {
        const Row *fast =
            fast_rows_[static_cast<size_t>(src)].load(
                std::memory_order_acquire);
        if (fast && (!exact || fast->radius == kInf))
            return {std::shared_ptr<const void>(), fast};
    }
    // LRU stamps only matter when a budget can evict; the unbudgeted
    // path skips the shared tick counter so workers don't contend on
    // it for every defect of every shot.
    auto touch = [&] {
        if (row_budget_.load(std::memory_order_relaxed))
            row_stamp_[static_cast<size_t>(src)].store(
                row_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    };
    std::shared_ptr<const Row> cur = slot.load(std::memory_order_acquire);
    if (cur && (!exact || cur->radius == kInf)) {
        touch();
        return cur;
    }
    std::shared_ptr<const Row> fresh{buildRow(src, exact, sc)};
    for (;;) {
        if (slot.compare_exchange_strong(cur, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            rows_built_.fetch_add(1, std::memory_order_relaxed);
            if (!cur) {
                rows_resident_.fetch_add(1, std::memory_order_relaxed);
            } else {
                // Upgrade over a truncated row: non-owning fast-path
                // readers may still hold it, so it lives with the graph.
                std::lock_guard<std::mutex> lock(evict_mutex_);
                retired_.push_back(std::move(cur));
            }
            fast_rows_[static_cast<size_t>(src)].store(
                fresh.get(), std::memory_order_release);
            touch();
            if (row_budget_ &&
                rows_resident_.load(std::memory_order_relaxed) >
                    row_budget_)
                enforceRowBudget();
            return fresh;
        }
        // Lost the race; `cur` now holds the winner.
        if (cur && (!exact || cur->radius == kInf)) {
            touch();
            return cur;
        }
    }
}

uint64_t
DecodingGraph::csrDigest() const
{
    // 64-bit FNV-1a over the CSR arrays' exact bit patterns (weights
    // hashed as their IEEE-754 images, so "equal digest" means
    // bit-identical relaxation inputs, not merely approximately equal).
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(numNodes());
    for (uint32_t v : csr_off_)
        mix(v);
    for (int v : csr_to_)
        mix(static_cast<uint64_t>(static_cast<int64_t>(v)));
    for (double w : csr_w_) {
        uint64_t bits;
        std::memcpy(&bits, &w, sizeof bits);
        mix(bits);
    }
    for (uint8_t v : csr_obs_)
        mix(v);
    return h;
}

} // namespace surf
