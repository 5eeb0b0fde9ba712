// servebench: the served-classification benchmark. One process holds a
// ClassificationServer (shipped default config) serving the model and
// disclosure plan that SecureClassificationPipeline selects on the seeded
// 2000-row warfarin cohort (risk budget 0.08, 256-bit Paillier), and drives
// it through the public serve::ClassificationClient on at most 4 threads
// and 4 connections. Every delivered label is checked against
// PlaintextPredict.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --slo-ms <workload>=<ms>[,...] [--setup-reps <k>]
//              [--trace-out <file>]
//
// Prints one JSON object on stdout: the metrics (end-to-end ones with
// --trace 0, per-layer ones with --trace 1), the sample counts behind each
// percentile, and the build half of the result fingerprint. Exits 1 when
// any record failed or mismatched. servebench/README.md lists the
// workloads, the metrics and which layer metric moves which end-to-end one.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "bignum/modmath.h"
#include "bignum/prime.h"
#include "core/pipeline.h"
#include "crypto/aes128.h"
#include "crypto/cpu_features.h"
#include "crypto/paillier.h"
#include "data/warfarin_gen.h"
#include "ml/random_forest.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "ot/iknp.h"
#include "serve/client.h"
#include "serve/model.h"
#include "serve/server.h"
#include "smc/secure_forest.h"

namespace servebench {
namespace {

using pafs::Dataset;
using pafs::Rng;
using pafs::SecureClassificationPipeline;
namespace serve = pafs::serve;

// The server under test is identical across workload seeds: cohort, model
// and plan come from these fixed values, the workload seed only picks the
// inputs.
constexpr uint64_t kCohortSeed = 2016;
constexpr size_t kCohortRows = 2000;
constexpr double kRiskBudget = 0.08;
constexpr int kPaillierBits = 256;

constexpr int kClosedSessions = 2;   // Clinic workstations / churn clients.
constexpr int kPanelPatients = 4;    // Per-session panel, forest_interactive.
// A session's panel turns over after this many queries: the 4 tuples stay
// well inside the 8-key GC pool, while a run still visits enough patients
// that its figures do not hinge on the circuit sizes of just 8 of them.
constexpr uint64_t kPanelTurnover = 256;
constexpr int kPanelsPerSession = 64;  // Cycled if a run outlasts them.
constexpr int kScreeningBatch = 32;  // Records per ClassifyBatch.
constexpr int kOpenConnections = 4;  // linear_interactive connections.
constexpr double kOpenRate = 50;     // linear_interactive arrivals per s.
constexpr int kResumesPerCycle = 3;  // Ticket reconnects per churn cycle.
constexpr int kWarmCycles = 2;       // Connect cycles per session in warm-up.

enum class Workload {
  kForestInteractive,
  kForestScreening,
  kLinearInteractive,
  kSessionChurn
};

struct WorkloadInfo {
  const char* name;
  Workload kind;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"forest_interactive", Workload::kForestInteractive},
    {"forest_screening", Workload::kForestScreening},
    {"linear_interactive", Workload::kLinearInteractive},
    {"session_churn", Workload::kSessionChurn},
};

struct Options {
  std::string workload_name;
  Workload workload = Workload::kForestInteractive;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  double slo_ms = 0;
  int setup_reps = 3;
};

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

bool IsForest(Workload w) { return w != Workload::kLinearInteractive; }

int SessionsFor(Workload w) {
  return w == Workload::kLinearInteractive ? kOpenConnections
                                           : kClosedSessions;
}

// Everything one request-generating thread observed. Merged after join.
struct Tally {
  std::vector<double> latency;  // Seconds per request.
  // Completion time of each latency sample; RunWindow makes it relative to
  // the window's start.
  std::vector<double> done_at;
  std::vector<double> lag;      // Open loop: send time - due time.
  std::vector<double> full_connect;
  std::vector<double> resumed_connect;
  uint64_t requests = 0;
  uint64_t attempted = 0;  // Records.
  uint64_t delivered = 0;  // Records answered, right or wrong.
  uint64_t failed = 0;     // Records failed, missing or mismatched.
  uint64_t slo_met = 0;    // Requests answered correctly within the limit.
  uint64_t bytes = 0;
  uint64_t flips = 0;
  double last_end = 0;
  std::set<size_t> rows_used;

  void Merge(const Tally& o) {
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency, o.latency);
    append(done_at, o.done_at);
    append(lag, o.lag);
    append(full_connect, o.full_connect);
    append(resumed_connect, o.resumed_connect);
    requests += o.requests;
    attempted += o.attempted;
    delivered += o.delivered;
    failed += o.failed;
    slo_met += o.slo_met;
    bytes += o.bytes;
    flips += o.flips;
    last_end = std::max(last_end, o.last_end);
    rows_used.insert(o.rows_used.begin(), o.rows_used.end());
  }

  // Adds the traffic of one client connection: all of it, or only what
  // followed `from`, an earlier reading of the same connection.
  void AddWire(const pafs::ChannelStats& to,
               const pafs::ChannelStats& from = {}) {
    bytes += to.bytes_sent + to.bytes_received - from.bytes_sent -
             from.bytes_received;
    flips += to.direction_flips - from.direction_flips;
  }

  // A long-lived session that reconnected inside the window absorbed a
  // transport fault by retrying; the run counts that as a failure (and the
  // replaced socket's traffic is lost to the wire figures).
  void CloseSession(const serve::ClassificationClient& client,
                    const pafs::ChannelStats& from, uint64_t reconnects0,
                    int session) {
    if (client.reconnects() != reconnects0) {
      std::fprintf(stderr, "servebench: session %d reconnected mid-window\n",
                   session);
      ++failed;
      return;
    }
    AddWire(client.wire_stats(), from);
  }
};

// The served stack: cohort, trained pipeline, running server and the warm
// long-lived sessions (none for session_churn, which opens its own).
struct Stack {
  std::unique_ptr<Dataset> cohort;
  std::unique_ptr<SecureClassificationPipeline> pipeline;
  std::unique_ptr<serve::ClassificationServer> server;
  std::vector<std::unique_ptr<serve::ClassificationClient>> clients;
  std::vector<int> expected;  // PlaintextPredict of every cohort row.

  serve::ClientConfig ClientFor(int index) const {
    serve::ClientConfig cc;
    cc.address = server->address();
    cc.seed = 0x5E55 + static_cast<uint64_t>(index);
    return cc;
  }

  ~Stack() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server) server->Stop();
  }
};

// Workload inputs, all drawn from the workload seed: row indices into the
// fixed cohort and, for the open loop, the arrival schedule.
struct Inputs {
  // forest_interactive: panels[session][k] holds the k-th panel's rows.
  std::vector<std::vector<std::vector<size_t>>> panels;
  std::vector<double> due;                  // linear_interactive.
  std::vector<size_t> due_rows;
  uint64_t seed = 0;

  // Per-session row stream (closed loops and churn).
  Rng SessionRng(int session) const {
    return Rng(seed * 0x9E3779B97F4A7C15ull + 17 * (session + 1));
  }
};

Inputs MakeInputs(const Options& opt) {
  Inputs in;
  in.seed = opt.seed;
  Rng rng(opt.seed);
  if (opt.workload == Workload::kForestInteractive) {
    in.panels.resize(kClosedSessions);
    for (auto& session : in.panels) {
      for (int k = 0; k < kPanelsPerSession; ++k) {
        std::vector<size_t> panel;
        for (int p = 0; p < kPanelPatients; ++p) {
          panel.push_back(rng.NextU64Below(kCohortRows));
        }
        session.push_back(panel);
      }
    }
  }
  if (opt.workload == Workload::kLinearInteractive) {
    in.due = PoissonSchedule(opt.seed ^ 0xA881FA1ull, kOpenRate, opt.seconds);
    for (size_t i = 0; i < in.due.size(); ++i) {
      in.due_rows.push_back(rng.NextU64Below(kCohortRows));
    }
  }
  return in;
}

// Checks one single-record answer into the tally.
void Score(Tally& t, size_t row, int got, const Stack& st, double latency,
           double slo_seconds) {
  ++t.requests;
  ++t.attempted;
  ++t.delivered;
  t.rows_used.insert(row);
  t.latency.push_back(latency);
  t.done_at.push_back(Now());
  if (got != st.expected[row]) {
    ++t.failed;
    return;
  }
  if (latency <= slo_seconds) ++t.slo_met;
}

// One full handshake plus first query on a new client, then
// kResumesPerCycle rounds of DropConnection + ticket-resumed query. Adds
// the connect samples and the wire traffic of every connection it closes.
// Leaves the client open (on its last resumed connection).
std::unique_ptr<serve::ClassificationClient> ConnectCycle(
    const Stack& st, int index, Rng& rows, Tally& t, SpanRecorder& rec,
    uint64_t request, double slo_seconds) {
  SpanRecorder::Scope cycle(rec, "bench.connect_cycle", request);
  size_t row = rows.NextU64Below(kCohortRows);
  double t0 = Now();
  std::unique_ptr<serve::ClassificationClient> client;
  int got;
  {
    SpanRecorder::Scope s(rec, "serve.client.connect", request);
    client = std::make_unique<serve::ClassificationClient>(st.ClientFor(index));
  }
  {
    SpanRecorder::Scope s(rec, "serve.client.classify", request);
    got = client->Classify(st.cohort->row(row));
  }
  double t1 = Now();
  t.full_connect.push_back(t1 - t0);
  Score(t, row, got, st, t1 - t0, slo_seconds);
  for (int r = 0; r < kResumesPerCycle; ++r) {
    client->DropConnection();
    t.AddWire(client->wire_stats());
    row = rows.NextU64Below(kCohortRows);
    double r0 = Now();
    {
      SpanRecorder::Scope s(rec, "serve.client.classify", request);
      got = client->Classify(st.cohort->row(row));
    }
    double r1 = Now();
    t.resumed_connect.push_back(r1 - r0);
    Score(t, row, got, st, r1 - r0, slo_seconds);
  }
  t.last_end = Now();
  return client;
}

// Builds the served stack and warms every session. Everything here counts
// in setup_s; nothing here lands in the timed window's samples.
std::unique_ptr<Stack> BuildStack(const Options& opt, const Inputs& in,
                                  SpanRecorder& rec, Tally& warm) {
  auto st = std::make_unique<Stack>();
  {
    SpanRecorder::Scope s(rec, "data.cohort", 0);
    Rng rng(kCohortSeed);
    st->cohort = std::make_unique<Dataset>(
        pafs::GenerateWarfarinCohort(kCohortRows, rng));
  }
  {
    SpanRecorder::Scope s(rec, "core.pipeline", 0);
    pafs::PipelineConfig config;
    config.classifier = IsForest(opt.workload) ? pafs::ClassifierKind::kForest
                                               : pafs::ClassifierKind::kLinear;
    config.risk_budget = kRiskBudget;
    config.paillier_bits = kPaillierBits;
    st->pipeline =
        std::make_unique<SecureClassificationPipeline>(*st->cohort, config);
  }
  {
    SpanRecorder::Scope s(rec, "serve.server_start", 0);
    st->server = std::make_unique<serve::ClassificationServer>(
        serve::ServingModel::FromPipeline(*st->pipeline),
        serve::ServerConfig{});
    st->server->Start();
  }
  // Expected answers: the correctness oracle, cheap next to the rest.
  for (size_t i = 0; i < st->cohort->size(); ++i) {
    st->expected.push_back(st->pipeline->PlaintextPredict(st->cohort->row(i)));
  }
  // Session warm-up: every session runs kWarmCycles connect cycles (full
  // handshake, base OTs, first query, ticket resumes) and keeps the last
  // client, so the window starts on warm sessions and the connect figures
  // of the long-lived workloads rest on a few dozen samples per run.
  // forest_interactive also visits its first panel once, so the GC pool
  // holds those tuples before timing starts.
  double slo = 1e30;
  for (int i = 0; i < SessionsFor(opt.workload); ++i) {
    Rng warm_rows(in.seed * 31 + 7 + static_cast<uint64_t>(i));
    std::unique_ptr<serve::ClassificationClient> client;
    for (int c = 0; c < kWarmCycles; ++c) {
      if (client) {
        client->Close();
        warm.AddWire(client->wire_stats());
      }
      client = ConnectCycle(*st, i, warm_rows, warm, rec, /*request=*/0, slo);
    }
    if (opt.workload == Workload::kForestInteractive) {
      for (size_t row : in.panels[static_cast<size_t>(i)][0]) {
        Score(warm, row, client->Classify(st->cohort->row(row)), *st, 0, slo);
      }
    }
    if (opt.workload == Workload::kSessionChurn) {
      client->Close();
      warm.AddWire(client->wire_stats());
    } else {
      st->clients.push_back(std::move(client));
    }
  }
  return st;
}

// The timed window of one workload. Returns the merged tally; `cpu` gets
// the process CPU seconds spent inside the window and `window` its wall
// length (until the last request in flight at the deadline completed).
Tally RunWindow(const Options& opt, const Inputs& in, Stack& st,
                SpanRecorder& rec, double* cpu, double* window) {
  const double slo = opt.slo_ms / 1e3;
  std::atomic<uint64_t> next_request{1};
  std::vector<Tally> tallies(static_cast<size_t>(SessionsFor(opt.workload)));
  std::vector<std::thread> threads;
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  const double deadline = t0 + opt.seconds;

  auto closed_session = [&](int i) {
    Tally& t = tallies[static_cast<size_t>(i)];
    serve::ClassificationClient& client = *st.clients[static_cast<size_t>(i)];
    Rng rows = in.SessionRng(i);
    const pafs::ChannelStats wire0 = client.wire_stats();
    const uint64_t reconnects0 = client.reconnects();
    uint64_t served = 0;
    while (Now() < deadline) {
      uint64_t request = next_request++;
      if (opt.workload == Workload::kForestInteractive) {
        const auto& panels = in.panels[static_cast<size_t>(i)];
        const auto& panel = panels[(served / kPanelTurnover) % panels.size()];
        size_t row = panel[rows.NextU64Below(panel.size())];
        ++served;
        double a = Now();
        int got;
        try {
          SpanRecorder::Scope s(rec, "serve.client.classify", request);
          got = client.Classify(st.cohort->row(row));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "servebench: session %d: %s\n", i, e.what());
          ++t.requests;
          ++t.attempted;
          ++t.failed;
          break;
        }
        double b = Now();
        Score(t, row, got, st, b - a, slo);
        t.last_end = b;
      } else {
        std::vector<size_t> idx(kScreeningBatch);
        std::vector<std::vector<int>> batch;
        for (size_t& r : idx) {
          r = rows.NextU64Below(kCohortRows);
          batch.push_back(st.cohort->row(r));
        }
        double a = Now();
        std::vector<int> got;
        ++t.requests;
        t.attempted += idx.size();
        try {
          SpanRecorder::Scope s(rec, "serve.client.classify_batch", request);
          got = client.ClassifyBatch(batch);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "servebench: session %d: %s\n", i, e.what());
          t.failed += idx.size();
          break;
        }
        double b = Now();
        t.latency.push_back(b - a);
        t.done_at.push_back(b);
        t.last_end = b;
        // A short batch counts its missing records as failed.
        uint64_t bad = idx.size() - std::min(idx.size(), got.size());
        for (size_t k = 0; k < got.size() && k < idx.size(); ++k) {
          t.rows_used.insert(idx[k]);
          if (got[k] != st.expected[idx[k]]) ++bad;
        }
        t.delivered += std::min(idx.size(), got.size());
        t.failed += bad;
        if (bad == 0 && b - a <= slo) ++t.slo_met;
      }
    }
    t.CloseSession(client, wire0, reconnects0, i);
  };

  // Open loop: request k is due at t0 + due[k] whatever the server is
  // doing; the next free connection sends it, and its latency counts from
  // the due time, so a stall also charges the requests queued behind it.
  std::atomic<size_t> next_due{0};
  auto open_connection = [&](int i) {
    Tally& t = tallies[static_cast<size_t>(i)];
    serve::ClassificationClient& client = *st.clients[static_cast<size_t>(i)];
    const pafs::ChannelStats wire0 = client.wire_stats();
    const uint64_t reconnects0 = client.reconnects();
    for (size_t k; (k = next_due++) < in.due.size();) {
      double due = t0 + in.due[k];
      double wait = due - Now();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      double sent = Now();
      t.lag.push_back(std::max(0.0, sent - due));
      size_t row = in.due_rows[k];
      int got;
      try {
        SpanRecorder::Scope s(rec, "serve.client.classify", k + 1);
        got = client.Classify(st.cohort->row(row));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: connection %d: %s\n", i, e.what());
        ++t.requests;
        ++t.attempted;
        ++t.failed;
        break;
      }
      double b = Now();
      Score(t, row, got, st, b - due, slo);
      t.last_end = b;
    }
    t.CloseSession(client, wire0, reconnects0, i);
  };

  auto churn_client = [&](int i) {
    Tally& t = tallies[static_cast<size_t>(i)];
    Rng rows = in.SessionRng(i);
    while (Now() < deadline) {
      uint64_t request = next_request++;
      try {
        auto client = ConnectCycle(st, i, rows, t, rec, request, slo);
        client->Close();
        t.AddWire(client->wire_stats());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: churn client %d: %s\n", i,
                     e.what());
        // The rest of the cycle's records never ran (completed cycles add
        // kResumesPerCycle + 1 records each).
        uint64_t done = t.attempted % (kResumesPerCycle + 1);
        uint64_t missing = kResumesPerCycle + 1 - done;
        t.requests += missing;
        t.attempted += missing;
        t.failed += missing;
        break;
      }
    }
  };

  for (int i = 0; i < SessionsFor(opt.workload); ++i) {
    switch (opt.workload) {
      case Workload::kForestInteractive:
      case Workload::kForestScreening:
        threads.emplace_back(closed_session, i);
        break;
      case Workload::kLinearInteractive:
        threads.emplace_back(open_connection, i);
        break;
      case Workload::kSessionChurn:
        threads.emplace_back(churn_client, i);
        break;
    }
  }
  for (auto& th : threads) th.join();
  *cpu = CpuSeconds() - cpu0;
  Tally all;
  for (const Tally& t : tallies) all.Merge(t);
  if (opt.workload == Workload::kLinearInteractive &&
      all.attempted < in.due.size()) {
    // Every connection gave up: the requests still due were never sent.
    uint64_t unsent = in.due.size() - all.attempted;
    all.requests += unsent;
    all.attempted += unsent;
    all.failed += unsent;
  }
  *window = std::max(all.last_end, Now()) - t0;
  for (double& d : all.done_at) d -= t0;
  return all;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// p50 and the tail percentile of `samples` (seconds) in ms, with the
// quantile and sample count recorded for the result file.
struct Percentiles {
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_q = 0;
  size_t n = 0;
};

Percentiles Summarize(std::vector<double> samples, double wanted_tail) {
  std::sort(samples.begin(), samples.end());
  Percentiles p;
  p.n = samples.size();
  p.p50_ms = NearestRank(samples, 0.5) * 1e3;
  p.tail_q = TailQuantile(samples.size(), wanted_tail);
  p.tail_ms = NearestRank(samples, p.tail_q) * 1e3;
  return p;
}

// ---------------------------------------------------------- traced layers

// Reads the aggregated phase trees the program exports. `only_under`, when
// set, restricts to nodes with an ancestor of that name set.
struct PhaseTotals {
  double seconds = 0;       // Outermost nodes of the name.
  double self_seconds = 0;  // Every node of the name.
};

PhaseTotals Phases(const std::string& name,
                   const std::set<std::string>& only_under = {}) {
  PhaseTotals out;
  std::vector<std::string> stack;
  pafs::obs::VisitPhases([&](const std::string&, int depth,
                             const pafs::obs::PhaseNode& node) {
    stack.resize(static_cast<size_t>(depth));
    bool nested_same = std::find(stack.begin(), stack.end(), name) !=
                       stack.end();
    bool under = only_under.empty();
    for (const std::string& a : stack) under = under || only_under.count(a);
    stack.push_back(node.name);
    if (node.name != name || !under) return;
    out.self_seconds += node.SelfSeconds();
    if (!nested_same) out.seconds += node.seconds;
  });
  return out;
}

uint64_t Count(const char* name) {
  return pafs::obs::GetCounter(name).value();
}

// Median wall time of `reps` calls of `fn`, in seconds.
double MedianSeconds(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    double a = Now();
    fn();
    t.push_back(Now() - a);
  }
  return Median(t);
}

// Timed calls into the layers below serve, outside the served path
// (telemetry off). Forest-only figures read 0 on the linear workload.
void MicroLayers(const Options& opt, const Stack& st, const Tally& window,
                 SpanRecorder& rec, std::vector<Metric>& m) {
  const auto& plan = st.pipeline->plan().features;
  double specialize_ms = 0, build_ms = 0;
  if (IsForest(opt.workload)) {
    // The workload's own distinct disclosure tuples.
    std::set<std::vector<int>> tuples;
    for (size_t row : window.rows_used) {
      std::vector<int> key;
      for (int f : plan) key.push_back(st.cohort->row(row)[f]);
      tuples.insert(key);
    }
    std::vector<double> spec_t, build_t;
    for (const auto& key : tuples) {
      std::map<int, int> disclosed;
      for (size_t k = 0; k < plan.size(); ++k) disclosed[plan[k]] = key[k];
      double a = Now();
      pafs::RandomForest specialized = [&] {
        SpanRecorder::Scope s(rec, "ml.specialize", 0);
        return st.pipeline->forest().Specialize(disclosed);
      }();
      double b = Now();
      {
        SpanRecorder::Scope s(rec, "smc.circuit_build", 0);
        pafs::SecureForestCircuit circuit(specialized,
                                          st.pipeline->features(),
                                          st.pipeline->num_classes(),
                                          disclosed);
      }
      double c = Now();
      spec_t.push_back(b - a);
      build_t.push_back(c - b);
    }
    specialize_ms = Median(spec_t) * 1e3;
    build_ms = Median(build_t) * 1e3;
  }
  m.push_back({"ml.specialize_ms_p50", specialize_ms, "ms"});
  m.push_back({"smc.circuit_build_ms_p50", build_ms, "ms"});

  // OT: base setup (128 base OTs over the 1024-bit group) and extension
  // throughput, two parties on two threads over the in-memory channel.
  {
    SpanRecorder::Scope s(rec, "ot.micro", 0);
    double setup_s = MedianSeconds(5, [] {
      pafs::MemChannelPair pair;
      pafs::OtExtSender sender;
      pafs::OtExtReceiver receiver;
      Rng rs(1), rr(2);
      std::thread peer([&] { receiver.Setup(pair.endpoint(1), rr); });
      sender.Setup(pair.endpoint(0), rs);
      peer.join();
    });
    m.push_back({"ot.base_setup_ms", setup_s * 1e3, "ms"});
    pafs::MemChannelPair pair;
    pafs::OtExtSender sender;
    pafs::OtExtReceiver receiver;
    Rng rs(3), rr(4);
    std::thread peer([&] { receiver.Setup(pair.endpoint(1), rr); });
    sender.Setup(pair.endpoint(0), rs);
    peer.join();
    constexpr size_t kRows = 1 << 14;
    double ext_s = MedianSeconds(5, [&] {
      std::thread p([&] { receiver.RecvRandom(pair.endpoint(1), rr, kRows); });
      sender.SendRandom(pair.endpoint(0), kRows);
      p.join();
    });
    m.push_back({"ot.ext_rows_per_s", Ratio(kRows, ext_s), "1/s"});
  }
  {
    SpanRecorder::Scope s(rec, "bignum.modexp", 0);
    pafs::MontgomeryCtx ctx(pafs::Rfc3526Prime1024());
    Rng rng(5);
    pafs::BigInt base = pafs::BigInt::RandomBelow(rng, ctx.modulus());
    pafs::BigInt exp = pafs::BigInt::RandomBits(rng, 256);
    constexpr int kOps = 64;
    double sec = MedianSeconds(3, [&] {
      for (int i = 0; i < kOps; ++i) base = ctx.Exp(base, exp);
    });
    m.push_back({"bignum.modexp_per_s", Ratio(kOps, sec), "1/s"});
  }
  {
    // Paillier at the served key size.
    SpanRecorder::Scope s(rec, "crypto.paillier", 0);
    Rng rng(6);
    pafs::PaillierKeyPair keys = pafs::GeneratePaillierKey(rng, kPaillierBits);
    const pafs::PaillierPublicKey& pk = keys.public_key;
    pafs::BigInt pad = pk.ComputePad(pk.SamplePadBase(rng));
    pafs::BigInt msg(12345);
    pafs::BigInt c = pk.Encrypt(msg, rng);
    pafs::BigInt k(987654321);
    pafs::BigInt sink;  // Keeps the timed results alive.
    constexpr int kOps = 200;
    double enc = MedianSeconds(3, [&] {
      for (int i = 0; i < kOps; ++i) c = pk.EncryptWithPad(msg, pad);
    });
    double mul = MedianSeconds(3, [&] {
      for (int i = 0; i < kOps; ++i) sink = pk.MulPlain(c, k);
    });
    double dec = MedianSeconds(3, [&] {
      for (int i = 0; i < kOps; ++i) sink = keys.private_key.Decrypt(c);
    });
    m.push_back({"crypto.paillier_encrypt_pooled_us", enc / kOps * 1e6, "us"});
    m.push_back({"crypto.paillier_mul_plain_us", mul / kOps * 1e6, "us"});
    m.push_back({"crypto.paillier_decrypt_crt_us", dec / kOps * 1e6, "us"});
  }
  {
    SpanRecorder::Scope s(rec, "crypto.aes", 0);
    constexpr size_t kBlocks = 1 << 12;
    std::vector<pafs::Block> in(kBlocks), out(kBlocks);
    const pafs::Aes128& aes = pafs::Aes128::FixedKeyInstance();
    constexpr int kPasses = 64;
    double sec = MedianSeconds(3, [&] {
      for (int i = 0; i < kPasses; ++i) {
        aes.EncryptBlocks(in.data(), out.data(), kBlocks);
        in.swap(out);
      }
    });
    m.push_back({"crypto.aes_blocks_per_s",
                 Ratio(static_cast<double>(kBlocks) * kPasses, sec), "1/s"});
  }
}

// Per-layer figures of the traced window, from the program's own counters,
// histograms and phase trees plus the benchmark's spans.
void TracedLayers(const Tally& w, const serve::ServerStats& before,
                  const serve::ServerStats& after, const SpanRecorder& rec,
                  std::vector<Metric>& m) {
  const double requests = static_cast<double>(w.requests);
  const double records = static_cast<double>(w.delivered);
  auto q = pafs::obs::GetHistogram("serve.query.seconds").Snap();
  auto b = pafs::obs::GetHistogram("serve.batch.seconds").Snap();
  double service_p50_ms = (b.count > q.count ? b.p50 : q.p50) * 1e3;
  Percentiles client = Summarize(w.latency, 0.95);
  m.push_back({"serve.service_ms_p50", service_p50_ms, "ms"});
  m.push_back({"serve.wait_ms_p50", client.p50_ms - service_p50_ms, "ms"});
  auto hit_ratio = [](const char* hit, const char* miss) {
    double h = static_cast<double>(Count(hit));
    return Ratio(h, h + static_cast<double>(Count(miss)));
  };
  m.push_back({"serve.gc_pool_hit_ratio",
               hit_ratio("gc.pool.hit", "gc.pool.miss"), "ratio"});
  m.push_back({"serve.gc_refill_useful_ratio",
               Ratio(static_cast<double>(Count("gc.pool.hit")),
                     static_cast<double>(Count("gc.pool.refill"))),
               "ratio"});
  m.push_back({"serve.ot_pool_hit_ratio",
               hit_ratio("ot.pool.hit", "ot.pool.miss"), "ratio"});
  m.push_back({"serve.paillier_pool_hit_ratio",
               hit_ratio("paillier.pool.hit", "paillier.pool.miss"), "ratio"});
  m.push_back({"serve.resume_hit_ratio",
               hit_ratio("serve.resumptions", "serve.resume_misses"), "ratio"});
  m.push_back(
      {"serve.records_per_wire_batch",
       Ratio(static_cast<double>(after.batch_records - before.batch_records),
             static_cast<double>(after.batches_served - before.batches_served)),
       "count"});
  m.push_back({"serve.queries_shed",
               static_cast<double>(after.queries_shed - before.queries_shed),
               "count"});
  m.push_back(
      {"serve.sessions_failed",
       static_cast<double>(after.sessions_failed - before.sessions_failed),
       "count"});
  std::vector<double> handshakes = rec.Durations("serve.client.connect");
  m.push_back({"serve.client_handshake_ms_p50", Median(handshakes) * 1e3,
               "ms"});
  m.push_back({"net.messages_per_request",
               Ratio(static_cast<double>(Count("net.messages_sent")),
                     requests),
               "count"});
  m.push_back({"smc.and_gates_per_record",
               Ratio(static_cast<double>(Count("gc.and_gates_evaluated")),
                     records),
               "count"});
  m.push_back({"ot.transfers_per_record",
               Ratio(static_cast<double>(Count("ot.ext.transfers")), records),
               "count"});
  // Online garbling only: gc.garble under a served query or batch. Filler
  // (offline) garbling runs outside those spans.
  m.push_back({"gc.garble_ms_per_record",
               Ratio(Phases("gc.garble", {"serve.query", "serve.batch"})
                         .seconds * 1e3,
                     records),
               "ms"});
  m.push_back({"gc.eval_gates_per_s",
               Ratio(static_cast<double>(Count("gc.and_gates_evaluated")),
                     Phases("gc.eval").seconds),
               "1/s"});
  double paillier_ops = 0;
  for (const char* c : {"paillier.encrypt", "paillier.decrypt",
                        "paillier.mul_plain", "paillier.add",
                        "paillier.add_plain", "paillier.rerandomize"}) {
    paillier_ops += static_cast<double>(Count(c));
  }
  m.push_back({"crypto.paillier_ops_per_record", Ratio(paillier_ops, records),
               "count"});
  for (const char* span :
       {"gc.garble", "gc.eval", "ot.ext", "ot.base", "paillier.encrypt",
        "paillier.decrypt", "paillier.mul_plain", "paillier.add",
        "paillier.add_plain", "paillier.rerandomize", "paillier.pad",
        "serve.query"}) {
    m.push_back({std::string(span) + ".self_ms_per_request",
                 Ratio(Phases(span).self_seconds * 1e3, requests), "ms"});
  }
}

// Writes the benchmark's spans with their self times as one JSON document.
void WriteTrace(const std::string& path, const SpanRecorder& rec) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
    return;
  }
  std::vector<Span> spans = rec.spans();
  std::vector<double> self = SelfSeconds(spans);
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"request\": %" PRIu64
                 ", \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}\n",
                 i == 0 ? "" : ",", s.id, s.parent, s.request, s.name.c_str(),
                 s.start, s.end, self[i]);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// ------------------------------------------------------------------ main

int Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --slo-ms <workload>=<ms>[,...] "
               "[--setup-reps <k>] [--trace-out <file>]\n");
  return 2;
}

bool ParseSlo(const std::string& spec, const std::string& workload,
              double* ms) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    size_t eq = item.find('=');
    if (eq != std::string::npos && item.substr(0, eq) == workload) {
      *ms = std::atof(item.c_str() + eq + 1);
      return *ms > 0;
    }
    pos = end + 1;
  }
  return false;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string slo_spec;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload_name = val;
      for (const WorkloadInfo& w : kWorkloads) {
        if (val == w.name) {
          opt.workload = w.kind;
          have_workload = true;
        }
      }
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else if (key == "--slo-ms") {
      slo_spec = val;
    } else if (key == "--setup-reps") {
      opt.setup_reps = std::max(1, std::atoi(val.c_str()));
    } else {
      return Usage();
    }
  }
  if (!have_workload || opt.seconds <= 0 ||
      !ParseSlo(slo_spec, opt.workload_name, &opt.slo_ms)) {
    return Usage();
  }

  // Timed runs measure the program as shipped: telemetry off whatever the
  // environment says. The traced run turns it on only around its layers.
  pafs::PafsTelemetry::Disable();
  SpanRecorder rec;
  rec.set_enabled(opt.trace);
  const Inputs in = MakeInputs(opt);

  // Set-up, repeated: setup_s is the median of setup_reps full builds.
  // The last stack stays up for the window. The traced run builds once,
  // with telemetry on, to read the train/select figures.
  if (opt.trace) {
    opt.setup_reps = 1;
    pafs::PafsTelemetry::Enable();
  }
  // Warm-up tallies accumulate over every rep: the connect samples of the
  // workloads with long-lived sessions come from their warm-ups.
  std::vector<double> setup_times;
  std::unique_ptr<Stack> st;
  Tally warm;
  for (int rep = 0; rep < opt.setup_reps; ++rep) {
    st.reset();
    double a = Now();
    st = BuildStack(opt, in, rec, warm);
    setup_times.push_back(Now() - a);
  }
  std::vector<Metric> m;
  if (opt.trace) {
    m.push_back({"ml.train_s", Phases("train").seconds, "s"});
    m.push_back({"core.select_s", st->pipeline->selection_seconds(), "s"});
    m.push_back({"privacy.risk_evaluations",
                 static_cast<double>(st->pipeline->plan().risk_evaluations),
                 "count"});
    pafs::PafsTelemetry::Disable();
  }

  // The untraced window. In the traced run it is the baseline of the
  // tracing overhead, and a second, traced window follows on the same
  // warm stack.
  rec.set_enabled(false);
  double cpu = 0, window = 0;
  Tally w = RunWindow(opt, in, *st, rec, &cpu, &window);
  // session_churn connects inside its window; the others only in warm-up.
  const bool churn = opt.workload == Workload::kSessionChurn;
  const Tally& connects = churn ? w : warm;
  uint64_t attempted = w.attempted + warm.attempted;
  uint64_t failed = w.failed + warm.failed;

  // Request figures: medians over slices of the window (SliceMedians). A
  // screening sample is one batch of kScreeningBatch records.
  const double weight =
      opt.workload == Workload::kForestScreening ? kScreeningBatch : 1;
  auto requests = [&](const Tally& t) {
    return SliceMedians(t.done_at, t.latency, opt.seconds, weight, 0.95);
  };
  if (!opt.trace) {
    SliceSummary lat = requests(w);
    Percentiles full = Summarize(connects.full_connect, 0.5);
    Percentiles resumed = Summarize(connects.resumed_connect, 0.5);
    const double records = static_cast<double>(w.delivered);
    m.push_back({"setup_s", Median(setup_times), "s"});
    m.push_back({"success_rate",
                 1.0 - Ratio(static_cast<double>(w.failed),
                             static_cast<double>(w.attempted)),
                 "ratio"});
    m.push_back({"cpu_ms_per_record", Ratio(cpu * 1e3, records), "ms"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    m.push_back({"wire_bytes_per_record",
                 Ratio(static_cast<double>(w.bytes), records), "bytes"});
    m.push_back({"rounds_per_request",
                 Ratio(static_cast<double>(w.flips),
                       static_cast<double>(w.requests)),
                 "count"});
    // The open loop completes what its fixed schedule offers, so its rate
    // is taken over the whole window; a closed loop's varies with the host.
    const bool open = opt.workload == Workload::kLinearInteractive;
    m.push_back({"throughput_rps", open ? Ratio(records, window) : lat.rate,
                 "1/s"});
    m.push_back({"latency_p50_ms", lat.p50 * 1e3, "ms"});
    m.push_back({"latency_p95_ms", lat.tail * 1e3, "ms"});
    m.push_back({"slo_attainment",
                 Ratio(static_cast<double>(w.slo_met),
                       static_cast<double>(w.requests)),
                 "ratio"});
    m.push_back({"connect_full_p50_ms", full.p50_ms, "ms"});
    m.push_back({"connect_resumed_p50_ms", resumed.p50_ms, "ms"});
    std::fprintf(stderr,
                 "servebench: %s seed %" PRIu64 ": %" PRIu64
                 " requests, %" PRIu64 " records, latency tail p%.4g over %zu "
                 "samples in %zu slices, %zu full / %zu resumed connects\n",
                 opt.workload_name.c_str(), opt.seed, w.requests, w.delivered,
                 lat.tail_q * 100, lat.samples, lat.slices, full.n, resumed.n);
    std::printf("{\"samples\": {\"requests\": %zu, \"slices\": %zu, "
                "\"latency_tail_quantile\": %s, \"full_connects\": %zu, "
                "\"resumed_connects\": %zu, \"setup_reps\": %d}, ",
                lat.samples, lat.slices, JsonNumber(lat.tail_q).c_str(), full.n,
                resumed.n, opt.setup_reps);
  } else {
    SliceSummary base = requests(w);
    Percentiles lag = Summarize(w.lag, 0.95);
    pafs::PafsTelemetry::Reset();
    pafs::PafsTelemetry::Enable();
    rec.set_enabled(true);
    serve::ServerStats before = st->server->stats();
    double tcpu = 0, twindow = 0;
    Tally t = RunWindow(opt, in, *st, rec, &tcpu, &twindow);
    serve::ServerStats after = st->server->stats();
    TracedLayers(t, before, after, rec, m);
    pafs::PafsTelemetry::Disable();
    attempted += t.attempted;
    failed += t.failed;
    SliceSummary traced = requests(t);
    m.push_back({"bench.generator_lag_p95_ms", lag.tail_ms, "ms"});
    m.push_back({"bench.tracing_overhead", Ratio(traced.p50, base.p50),
                 "ratio"});
    MicroLayers(opt, *st, t, rec, m);
    WriteTrace(opt.trace_out, rec);
    std::printf("{\"samples\": {\"requests\": %zu, \"traced_requests\": %zu}, ",
                base.samples, traced.samples);
  }

  const bool ok = failed == 0;
  std::printf("\"build\": {\"aes_ni\": %s, \"force_portable\": %s, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\"}, ",
              pafs::CpuHasAesNi() ? "true" : "false",
              pafs::ForcePortable() ? "true" : "false", __VERSION__,
              SERVEBENCH_BUILD_TYPE);
  std::printf("\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              ok ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                m[i].name.c_str(), JsonNumber(m[i].value).c_str(),
                m[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  st.reset();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::Main(argc, argv);
  } catch (const std::exception& e) {
    // A fault outside the timed windows (set-up, warm-up): no result.
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
