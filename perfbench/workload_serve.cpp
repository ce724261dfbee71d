// serve_zipf: an open loop of energy requests into SimService over a
// 2-worker state-vector pool. The load generator's three threads need
// cores of their own on a 4-core host: with 3 or 4 workers, the median
// latency spread between runs rose from about 6% to 12-15%.
//
// Portfolio: 4,096 seeded parameter sets, 1/3 H2 UCCSD(4,2) and 2/3
// water_active(2,5) UCCSD(10,6), requested with Zipf(1.0) popularity. The
// scalar cache budget holds a quarter of the distinct entries, so hits,
// misses and evictions all happen. 5% of requests are submit_energy_batch
// with K = 16 (the only path into the pool's batched engine); two tenants
// alternate. Two pacer threads (scalar requests, batches) submit on a fixed
// schedule and one collector thread waits for results; latency runs from
// each request's due time, so a stall also charges the requests queued
// behind it.
//
// Why: the only workload with queueing, admission and the result cache. A
// change to serve or runtime shows here and nowhere else.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chem/jordan_wigner.hpp"
#include "chem/molecules.hpp"
#include "common/rng.hpp"
#include "downfold/active_space.hpp"
#include "runtime/virtual_qpu.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "vqe/ansatz.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace vqsim;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kItems = 4096;
constexpr double kRatePerS = 300.0;
constexpr std::size_t kBatchEvery = 20;  // 5% of requests
constexpr std::size_t kBatchSize = 16;
constexpr double kWarmupSeconds = 2.0;
constexpr int kWorkers = 2;
constexpr int kQuota = 1024;
// Charged per settled scalar entry (ResultCache::kEntryOverhead + value).
constexpr std::size_t kEntryBytes = 64 + sizeof(double);
// A failed or refused request counts as over any latency limit.
constexpr double kFailedLatencyMs = 1e6;

struct Molecule {
  std::unique_ptr<Ansatz> ansatz;
  PauliSum hamiltonian;
};

struct Item {
  std::size_t molecule = 0;
  std::vector<double> theta;
};

struct ServeInputs {
  std::vector<Molecule> molecules;
  std::vector<Item> items;  // Zipf rank order: item 0 is the hottest
  runtime::VirtualQpuPool pool =
      runtime::make_statevector_pool(kWorkers, kWorkers, 16);
  std::unique_ptr<serve::SimService> service;
};

serve::TenantRegistry two_tenants() {
  serve::TenantRegistry registry;
  serve::TenantConfig interactive;
  interactive.name = "interactive";
  interactive.priority = runtime::JobPriority::kHigh;
  interactive.max_in_flight = kQuota;
  registry.add(interactive);
  serve::TenantConfig batch;
  batch.name = "batch";
  batch.priority = runtime::JobPriority::kLow;
  batch.max_in_flight = kQuota;
  registry.add(batch);
  return registry;
}

std::unique_ptr<ServeInputs> build_inputs(std::uint64_t seed) {
  auto in = std::make_unique<ServeInputs>();
  {
    const MolecularIntegrals h2 = h2_sto3g();
    in->molecules.push_back(
        {std::make_unique<UccsdAnsatzAdapter>(2 * h2.norb, h2.nelec),
         jordan_wigner(molecular_hamiltonian(h2))});
    const MolecularIntegrals water =
        project_active(water_like(16, 10), ActiveSpace{2, 5});
    in->molecules.push_back(
        {std::make_unique<UccsdAnsatzAdapter>(2 * water.norb, water.nelec),
         jordan_wigner(molecular_hamiltonian(water))});
  }
  Rng rng(seed);
  in->items.reserve(kItems);
  for (std::size_t r = 0; r < kItems; ++r) {
    Item item;
    item.molecule = r % 3 == 2 ? 0 : 1;
    item.theta.resize(in->molecules[item.molecule].ansatz->num_parameters());
    for (double& t : item.theta) t = rng.uniform(-0.4, 0.4);
    in->items.push_back(std::move(item));
  }
  serve::ServeConfig config;
  config.cache_bytes = kItems / 4 * kEntryBytes;
  in->service =
      std::make_unique<serve::SimService>(in->pool, two_tenants(), config);
  return in;
}

struct Request {
  bool batch = false;
  std::vector<std::size_t> items;  // one, or kBatchSize of one molecule
};

std::vector<Request> request_stream(std::size_t count, std::uint64_t seed) {
  const ZipfSampler zipf(kItems, 1.0);
  Rng rng(seed);
  std::vector<Request> stream(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request& r = stream[i];
    // Batches at fixed positions: random ones would cluster differently
    // per seed, and their stalls dominate the latency tail.
    r.batch = i % kBatchEvery == kBatchEvery - 1;
    r.items.push_back(zipf(rng));
    const std::size_t molecule = r.items.front() % 3 == 2 ? 0 : 1;
    while (r.batch && r.items.size() < kBatchSize) {
      const std::size_t i = zipf(rng);
      if ((i % 3 == 2 ? 0u : 1u) == molecule) r.items.push_back(i);
    }
  }
  return stream;
}

/// What one open-loop segment observed.
struct Segment {
  std::vector<double> scalar_ms;  // from due time
  std::vector<double> batch_ms;
  std::vector<double> submit_us;  // scalar submit calls
  double lag_ms_max = 0.0;        // pacer lateness
  std::size_t answered_at_submit = 0;  // scalar cache hits
  std::uint64_t failed = 0;
  std::unordered_map<std::size_t, double> energies;  // first scalar result
};

/// Submits `stream` at kRatePerS from now; returns once every result is in.
Segment open_loop(ServeInputs& in, const std::vector<Request>& stream) {
  struct Pending {
    Clock::time_point due;
    const Request* request;
    std::vector<std::shared_future<double>> results;
  };
  Segment seg;
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<Pending> inbox;
  bool done = false;

  const auto record = [&seg](const Pending& p, Clock::time_point now) {
    const double ms =
        std::chrono::duration<double, std::milli>(now - p.due).count();
    bool ok = true;
    for (const auto& f : p.results) {
      try {
        const double e = f.get();
        if (!p.request->batch)
          seg.energies.emplace(p.request->items.front(), e);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) ++seg.failed;
    (p.request->batch ? seg.batch_ms : seg.scalar_ms)
        .push_back(ok ? ms : kFailedLatencyMs);
  };
  const auto ready = [](const Pending& p) {
    return std::all_of(p.results.begin(), p.results.end(), [](const auto& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
  };

  // The collector polls every pending request at 100 us resolution, so a
  // request finishing behind a slower one is not charged for its wait.
  std::thread collector([&] {
    std::vector<Pending> pending;
    for (;;) {
      if (!pending.empty())
        pending.front().results.front().wait_for(
            std::chrono::microseconds(100));
      const Clock::time_point now = Clock::now();
      std::unique_lock<std::mutex> lock(mutex);
      const auto finished =
          std::stable_partition(pending.begin(), pending.end(),
                                [&](const Pending& p) { return !ready(p); });
      for (auto it = finished; it != pending.end(); ++it) record(*it, now);
      pending.erase(finished, pending.end());
      if (pending.empty())
        wake.wait(lock, [&] { return done || !inbox.empty(); });
      while (!inbox.empty()) {
        pending.push_back(std::move(inbox.front()));
        inbox.pop_front();
      }
      if (done && pending.empty()) return;
    }
  });

  // Scalar requests and batches have a pacer each: a batch submit builds
  // 16 circuits, and on a shared pacer that stall would land on the
  // scalar requests due behind it.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRatePerS));
  const Clock::time_point start = Clock::now();
  const auto pace = [&](bool batches) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Request& request = stream[i];
      if (request.batch != batches) continue;
      const Clock::time_point due = start + interval * static_cast<long>(i);
      // Sleep to just short of the due time, then spin: sleep_until alone
      // wakes tens of microseconds late, which would read as latency.
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      while (Clock::now() < due) {
      }
      const Clock::time_point sent = Clock::now();
      const Molecule& mol =
          in.molecules[in.items[request.items.front()].molecule];
      const serve::TenantId tenant = i % 2 == 0 ? "interactive" : "batch";
      Pending p{due, &request, {}};
      try {
        if (request.batch) {
          std::vector<std::vector<double>> thetas;
          for (std::size_t item : request.items)
            thetas.push_back(in.items[item].theta);
          p.results = in.service->submit_energy_batch(
              tenant, *mol.ansatz, mol.hamiltonian, std::move(thetas));
        } else {
          p.results.push_back(in.service->submit_energy(
              tenant, *mol.ansatz, mol.hamiltonian,
              in.items[request.items.front()].theta));
        }
      } catch (const std::exception&) {
        p.results.clear();
      }
      const Clock::time_point submitted = Clock::now();
      const std::lock_guard<std::mutex> lock(mutex);
      seg.lag_ms_max = std::max(
          seg.lag_ms_max,
          std::chrono::duration<double, std::milli>(sent - due).count());
      if (!request.batch)
        seg.submit_us.push_back(
            std::chrono::duration<double, std::micro>(submitted - sent)
                .count());
      if (p.results.empty()) {  // refused at admission
        ++seg.failed;
        (request.batch ? seg.batch_ms : seg.scalar_ms)
            .push_back(kFailedLatencyMs);
      } else if (ready(p)) {  // cache hit: answered by the submit call
        record(p, submitted);
        seg.answered_at_submit += request.batch ? 0 : 1;
      } else {
        inbox.push_back(std::move(p));
        wake.notify_one();
      }
    }
  };
  std::thread batch_pacer(pace, true);
  pace(false);
  batch_pacer.join();
  {
    const std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  wake.notify_one();
  collector.join();
  in.pool.wait_all();
  return seg;
}

}  // namespace

WorkloadResult run_serve_zipf(const RunConfig& config) {
  WorkloadResult result;
  const auto build = [&] { return build_inputs(config.seed); };
  const auto inputs = build();
  ServeInputs& in = *inputs;
  const auto requests = [&](double seconds) {
    return static_cast<std::size_t>(
        std::max(20.0, std::ceil(seconds * kRatePerS)));
  };
  const std::vector<Request> warmup = request_stream(
      config.smoke ? 0 : requests(kWarmupSeconds), config.seed + 1);
  const std::vector<Request> timed =
      request_stream(requests(config.untraced_seconds()), config.seed);
  const std::vector<Request> traced =
      request_stream(requests(config.traced_seconds()), config.seed + 2);

  (void)open_loop(in, warmup);
  time_setups(config.setups_each_side(), result, build);
  const serve::ServiceStats before = in.service->stats();
  const CounterDelta counts;
  const Segment seg = open_loop(in, timed);
  const serve::ServiceStats after = in.service->stats();
  result.op_ms = seg.scalar_ms;
  result.attempted = timed.size();
  result.failed = seg.failed;
  record_counts(result, counts, static_cast<double>(timed.size()));
  const auto served = [&](std::uint64_t serve::ServiceStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double hits = served(&serve::ServiceStats::cache_hits) +
                      served(&serve::ServiceStats::coalesced);
  result.layer["serve.hit_frac"] =
      hits / std::max(1.0, hits + served(&serve::ServiceStats::executed));
  result.layer["serve.evictions"] =
      static_cast<double>(after.value_cache.evictions -
                          before.value_cache.evictions) /
      static_cast<double>(timed.size());
  result.layer["serve.rejected"] =
      (served(&serve::ServiceStats::rejected) +
       served(&serve::ServiceStats::shed)) /
      static_cast<double>(timed.size());
  result.details["requests"] = static_cast<double>(timed.size());
  result.details["loadgen.lag_ms_max"] = seg.lag_ms_max;
  result.details["scalar_answered_at_submit_frac"] =
      static_cast<double>(seg.answered_at_submit) /
      static_cast<double>(seg.scalar_ms.size());
  result.details["serve.submit_us_p50"] = median(seg.submit_us);
  result.details["serve.submit_us_p99"] = quantile(seg.submit_us, 0.99);
  if (!seg.batch_ms.empty())
    result.details["serve.batch_latency_ms_p50"] = median(seg.batch_ms);

  // Served bits equal a direct pool evaluation.
  std::size_t checked = 0;
  for (const auto& [item, energy] : seg.energies) {
    if (checked++ == 16) break;
    const Item& it = in.items[item];
    const Molecule& mol = in.molecules[it.molecule];
    result.check(in.pool.submit_energy(*mol.ansatz, mol.hamiltonian, it.theta)
                         .get() == energy,
                 "serve_zipf: served energy differs from direct evaluation");
  }
  for (const auto& t : after.tenants)
    result.check(t.rejected_quota == 0 &&
                     t.in_flight_high_water <= static_cast<std::size_t>(kQuota),
                 "serve_zipf: tenant quota violated");

  if (config.trace) {
    in.pool.wait_all();
    in.pool.clear_telemetry();
    const Segment t = open_loop(in, traced);
    result.attempted += traced.size();
    result.failed += t.failed;
    double wait_s = 0.0;
    double exec_s = 0.0;
    std::vector<double> exec_ms;
    for (const runtime::JobTelemetry& job : in.pool.telemetry()) {
      if (job.kind != runtime::JobKind::kEnergy) continue;
      wait_s += job.queue_wait_seconds;
      exec_s += job.execution_seconds;
      exec_ms.push_back(job.execution_seconds * 1e3);
    }
    const double latency_s =
        std::accumulate(t.scalar_ms.begin(), t.scalar_ms.end(), 0.0) / 1e3;
    const double submit_s =
        std::accumulate(t.submit_us.begin(), t.submit_us.end(), 0.0) / 1e6;
    result.layer["serve.submit_frac"] = submit_s / latency_s;
    result.layer["runtime.queue_wait_frac"] = wait_s / latency_s;
    result.layer["runtime.execute_frac"] = exec_s / latency_s;
    result.layer["trace.coverage_frac"] =
        (submit_s + wait_s + exec_s) / latency_s;
    result.layer["trace.overhead_frac"] =
        median(t.scalar_ms) / median(result.op_ms) - 1.0;
    bool match = true;
    for (const auto& [item, energy] : t.energies) {
      const auto it = seg.energies.find(item);
      match = match && (it == seg.energies.end() || it->second == energy);
    }
    result.layer["trace.replica_match"] = match ? 1.0 : 0.0;
    if (!exec_ms.empty())
      result.details["runtime.execute_ms_p50"] = median(exec_ms);
  }
  time_setups(config.setups_each_side(), result, build);
  return result;
}

}  // namespace perfbench
