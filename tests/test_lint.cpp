// kosha_lint rule-engine tests: every rule (D1-D3, P1-P3, S1, H1) is driven
// over a known-bad fixture snippet and must fire with its exact rule id;
// the annotation escape hatch, the clean path and the exit-code contract
// are covered alongside. Fixtures live in raw strings — the tokenizer
// ignores string literals, which is also why this file survives the
// repo-wide lint walk.

#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using kosha::lint::Diagnostic;
using kosha::lint::Linter;

std::vector<Diagnostic> lint_one(const std::string& path, const std::string& src) {
  Linter linter;
  linter.add_source(path, src);
  return linter.run();
}

std::vector<std::string> rules_of(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> rules;
  rules.reserve(diags.size());
  for (const Diagnostic& d : diags) rules.push_back(d.rule);
  return rules;
}

// ---------------------------------------------------------------------------
// D1 — wall clock / entropy
// ---------------------------------------------------------------------------

TEST(LintD1, FlagsSystemClock) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
#include <chrono>
void f() { auto t = std::chrono::system_clock::now(); (void)t; }
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
  EXPECT_EQ(diags[0].slug, "wall-clock");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintD1, FlagsLibcTimeAndRand) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
long f() { return time(nullptr) + rand(); }
long g() { return std::time(nullptr); }
)cpp");
  EXPECT_EQ(rules_of(diags), (std::vector<std::string>{"D1", "D1", "D1"}));
}

TEST(LintD1, IgnoresMemberFunctionsNamedLikeLibc) {
  // cluster.clock(), network->clock().now(), SimClock::time-style statics:
  // member access and non-std qualification are different symbols.
  const auto diags = lint_one("src/kosha/ok.cpp", R"cpp(
void f(Cluster& cluster) {
  auto& c = cluster.clock();
  auto t = network_->clock().now();
  auto r = runtime();
  auto s = SomeClass::time(3);
  (void)c; (void)t; (void)r; (void)s;
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintD1, AllowlistedSeedSeamMayTouchEntropy) {
  const auto diags = lint_one("src/common/rng.cpp", R"cpp(
unsigned seed_from_wall_clock() { return (unsigned)time(nullptr); }
)cpp");
  EXPECT_TRUE(diags.empty());
}

TEST(LintD1, ProfilerSeamMayReadSteadyClock) {
  // src/common/profile.cpp is the one sanctioned wall-clock seam: the
  // profiler measures the simulator and never feeds readings back in.
  const auto diags = lint_one("src/common/profile.cpp", R"cpp(
#include <chrono>
unsigned long long wall_now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintD1, SteadyClockOutsideTheProfilerSeamIsStillFlagged) {
  // The identical code anywhere else must trip D1 — the allowlist is a
  // path property, not a pattern property.
  const auto diags = lint_one("src/common/profile_helpers.cpp", R"cpp(
#include <chrono>
unsigned long long wall_now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
  EXPECT_EQ(diags[0].slug, "wall-clock");
}

TEST(LintD1, StringsAndCommentsAreInvisible) {
  const auto diags = lint_one("src/kosha/ok.cpp", R"cpp(
// rand() and system_clock in a comment are fine
const char* k = "time(nullptr) rand() std::random_device";
)cpp");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// D2 — unordered iteration
// ---------------------------------------------------------------------------

TEST(LintD2, FlagsRangeForOverUnorderedMember) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
#include <unordered_map>
struct S {
  std::unordered_map<int, int> members_;
  int sum() {
    int s = 0;
    for (const auto& [k, v] : members_) s += v;
    return s;
  }
};
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D2");
  EXPECT_EQ(diags[0].slug, "unordered-iter");
  EXPECT_EQ(diags[0].line, 7);
}

TEST(LintD2, FlagsIteratorLoop) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
#include <unordered_set>
struct S {
  std::unordered_set<int> seen_;
  void sweep() {
    for (auto it = seen_.begin(); it != seen_.end();) { ++it; }
  }
};
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D2");
}

TEST(LintD2, SeesDeclarationsAcrossFiles) {
  // The member is declared in a header, iterated in a .cpp — the linter's
  // shared name set ties the two together.
  Linter linter;
  linter.add_source("src/kosha/s.hpp", R"cpp(
#pragma once
#include <unordered_map>
struct S {
  void dump();
  std::unordered_map<long, long> table_;
};
)cpp");
  linter.add_source("src/kosha/s.cpp", R"cpp(
#include "s.hpp"
void S::dump() {
  for (const auto& [k, v] : table_) { (void)k; (void)v; }
}
)cpp");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D2");
  EXPECT_EQ(diags[0].file, "src/kosha/s.cpp");
}

TEST(LintD2, AnnotationWithReasonSuppresses) {
  const auto diags = lint_one("src/kosha/ok.cpp", R"cpp(
#include <unordered_map>
struct S {
  std::unordered_map<int, int> cache_;
  void sweep() {
    // kosha-lint: allow(unordered-iter): erase-sweep, result independent of order
    for (auto it = cache_.begin(); it != cache_.end();) { ++it; }
  }
};
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintD2, AnnotationWithoutReasonDoesNotSuppress) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
#include <unordered_map>
struct S {
  std::unordered_map<int, int> cache_;
  void sweep() {
    // kosha-lint: allow(unordered-iter)
    for (auto it = cache_.begin(); it != cache_.end();) { ++it; }
  }
};
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D2");
}

TEST(LintD2, OrderedMapIsFine) {
  const auto diags = lint_one("src/kosha/ok.cpp", R"cpp(
#include <map>
struct S {
  std::map<int, int> sorted_;
  int sum() {
    int s = 0;
    for (const auto& [k, v] : sorted_) s += v;
    return s;
  }
};
)cpp");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// D3 — event-loop callback discipline
// ---------------------------------------------------------------------------

TEST(LintD3, FlagsBlockingSleep) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
#include <chrono>
#include <thread>
void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }
)cpp");
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].rule, "D3");
  EXPECT_EQ(diags[0].slug, "event-callback");
}

TEST(LintD3, FlagsClockMutationInsideScheduledCallback) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
void f(EventLoop& loop, SimClock& clock, SimDuration t) {
  loop.schedule_after(t, [&] { clock.set_now(t); });
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D3");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintD3, SchedulingWithoutClockMutationIsFine) {
  const auto diags = lint_one("src/kosha/ok.cpp", R"cpp(
void f(EventLoop& loop, SimDuration t) {
  loop.schedule_after(t, [&] { do_work(); });
  loop.schedule_at(t, [] { more_work(); });
}
)cpp");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// Heartbeat/repair-callback-shaped fixtures: the periodic-timer pattern the
// failure detector and anti-entropy daemon use must stay inside the rules.
// ---------------------------------------------------------------------------

TEST(LintD1, FlagsHeartbeatTimerDrivenByWallClock) {
  // A probe deadline taken from the host's clock instead of the loop's
  // virtual time — the classic way a detector stops replaying.
  const auto diags = lint_one("src/pastry/bad_detector.cpp", R"cpp(
#include <chrono>
void FailureDetector::probe_deadline() {
  auto deadline = std::chrono::steady_clock::now();
  (void)deadline;
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
}

TEST(LintD1, LoopJitteredHeartbeatIsClean) {
  const auto diags = lint_one("src/pastry/ok_detector.cpp", R"cpp(
void FailureDetector::schedule_tick(EventLoop* loop, SimDuration period,
                                    SimDuration jitter) {
  loop->schedule_after(period + loop->jitter(jitter), [] { resolve_and_tick(); });
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintD2, FlagsRepairSweepOverUnorderedPeerMap) {
  // A repair pass iterating an unordered peer map: the push order (and so
  // the wire transcript) would depend on hash seeding.
  const auto diags = lint_one("src/kosha/bad_repair.cpp", R"cpp(
#include <unordered_map>
struct RepairDaemon {
  std::unordered_map<unsigned, int> peers_;
  void sweep() {
    for (const auto& [peer, state] : peers_) push_to(peer, state);
  }
};
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D2");
}

TEST(LintD3, FlagsRepairTickMutatingTheClock) {
  // A daemon tick must never warp virtual time; background work only
  // counts its traffic, it does not set the clock.
  const auto diags = lint_one("src/kosha/bad_repair.cpp", R"cpp(
void RepairDaemon::schedule_tick(EventLoop& loop, SimClock& clock, SimDuration t) {
  loop.schedule_after(t, [&] { clock.set_now(t); tick(); });
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D3");
}

TEST(LintD3, RegistryResolvingRepairTickIsClean) {
  // The sanctioned shape: the callback captures ids, resolves the daemon
  // through the runtime registry at fire time, and reschedules itself.
  const auto diags = lint_one("src/kosha/ok_repair.cpp", R"cpp(
void schedule_tick(EventLoop* loop, Runtime* runtime, unsigned host, SimDuration delay) {
  loop->schedule_after(delay, [runtime, host] {
    if (RepairDaemon* d = runtime->repair_daemon(host)) d->tick();
  });
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

// ---------------------------------------------------------------------------
// P1 — non-idempotent handlers must engage the DRC
// ---------------------------------------------------------------------------

TEST(LintP1, FlagsHandlerMutatingBeforeDrcLookup) {
  const auto diags = lint_one("src/nfs/bad_server.cpp", R"cpp(
NfsResult<HandleReply> NfsServer::create(FileHandle dir, std::string_view name,
                                         RpcContext ctx) {
  const auto inode = store_.create(dir.inode, name);
  if (const DrcEntry* hit = drc_find(ctx, true)) return hit->handle_reply;
  drc_store(ctx, {});
  return HandleReply{};
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "P1");
  EXPECT_EQ(diags[0].slug, "drc");
}

TEST(LintP1, FlagsHandlerThatNeverRecordsItsReply) {
  const auto diags = lint_one("src/nfs/bad_server.cpp", R"cpp(
NfsResult<Unit> NfsServer::remove(FileHandle dir, std::string_view name,
                                  RpcContext ctx) {
  if (const DrcEntry* hit = drc_find(ctx, false)) return hit->unit_reply;
  return from_fs(store_.remove(dir.inode, name));
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "P1");
  EXPECT_NE(diags[0].message.find("drc_store"), std::string::npos);
}

TEST(LintP1, WellFormedHandlerIsClean) {
  const auto diags = lint_one("src/nfs/ok_server.cpp", R"cpp(
NfsResult<Unit> NfsServer::rmdir(FileHandle dir, std::string_view name,
                                 RpcContext ctx) {
  if (const DrcEntry* hit = drc_find(ctx, false)) return hit->unit_reply;
  NfsResult<Unit> reply = from_fs(store_.rmdir(dir.inode, name));
  drc_store(ctx, reply);
  return reply;
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintP1, IdempotentHandlerNeedsNoDrc) {
  const auto diags = lint_one("src/nfs/ok_server.cpp", R"cpp(
NfsResult<ReadReply> NfsServer::read(FileHandle file) {
  return store_read(file);
}
)cpp");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// P3 — early rejects must precede the DRC store
// ---------------------------------------------------------------------------

TEST(LintP3, FlagsRejectExpiredAfterDrcStore) {
  const auto diags = lint_one("src/nfs/bad_server.cpp", R"cpp(
NfsResult<Unit> NfsServer::remove(FileHandle dir, std::string_view name,
                                  RpcContext ctx) {
  if (const DrcEntry* hit = drc_find(ctx, false)) return hit->unit_reply;
  NfsResult<Unit> reply = from_fs(store_.remove(dir.inode, name));
  drc_store(ctx, reply);
  if (reject_expired(ctx)) return NfsStat::kOverloaded;
  return reply;
}
)cpp");
  ASSERT_GE(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "P3");
  EXPECT_EQ(diags[0].slug, "early-reject");
}

TEST(LintP3, FlagsOverloadReplyProducedAfterDrcStore) {
  const auto diags = lint_one("src/nfs/bad_server.cpp", R"cpp(
NfsResult<Unit> NfsServer::rmdir(FileHandle dir, std::string_view name,
                                 RpcContext ctx) {
  if (const DrcEntry* hit = drc_find(ctx, false)) return hit->unit_reply;
  NfsResult<Unit> reply = from_fs(store_.rmdir(dir.inode, name));
  drc_store(ctx, reply);
  if (queue_full()) return NfsStat::kOverloaded;
  return reply;
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "P3");
  EXPECT_NE(diags[0].message.find("kOverloaded"), std::string::npos);
}

TEST(LintP3, RejectBeforeDrcEngagementIsClean) {
  const auto diags = lint_one("src/nfs/ok_server.cpp", R"cpp(
NfsResult<Unit> NfsServer::remove(FileHandle dir, std::string_view name,
                                  RpcContext ctx) {
  if (reject_expired(ctx)) return NfsStat::kOverloaded;
  if (const DrcEntry* hit = drc_find(ctx, false)) return hit->unit_reply;
  NfsResult<Unit> reply = from_fs(store_.remove(dir.inode, name));
  drc_store(ctx, reply);
  return reply;
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintP3, HandlerWithoutEarlyRejectIsClean) {
  const auto diags = lint_one("src/nfs/ok_server.cpp", R"cpp(
NfsResult<Unit> NfsServer::rmdir(FileHandle dir, std::string_view name,
                                 RpcContext ctx) {
  if (const DrcEntry* hit = drc_find(ctx, false)) return hit->unit_reply;
  NfsResult<Unit> reply = from_fs(store_.rmdir(dir.inode, name));
  drc_store(ctx, reply);
  return reply;
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintP3, AnnotationWithReasonSuppresses) {
  const auto diags = lint_one("src/nfs/annotated_server.cpp", R"cpp(
NfsResult<Unit> NfsServer::remove(FileHandle dir, std::string_view name,
                                  RpcContext ctx) {
  if (const DrcEntry* hit = drc_find(ctx, false)) return hit->unit_reply;
  NfsResult<Unit> reply = from_fs(store_.remove(dir.inode, name));
  drc_store(ctx, reply);
  // kosha-lint: allow(early-reject): reply below is advisory, never cached
  if (reject_expired(ctx)) return NfsStat::kOverloaded;
  return reply;
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

// ---------------------------------------------------------------------------
// P2 — full RpcContext construction
// ---------------------------------------------------------------------------

TEST(LintP2, FlagsPartialContext) {
  const auto diags = lint_one("src/nfs/bad.cpp", R"cpp(
RpcContext make(net::HostId self, std::uint32_t xid, SimDuration deadline) {
  RpcContext ctx{self, xid};
  ctx.deadline = deadline;
  return ctx;
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "P2");
  EXPECT_EQ(diags[0].slug, "rpc-ctx");
}

TEST(LintP2, FlagsDefaultConstructedLocal) {
  const auto diags = lint_one("src/nfs/bad.cpp", R"cpp(
void f() {
  RpcContext ctx;
  use(ctx);
}
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "P2");
}

TEST(LintP2, FullTripleAndDefaultedParamAreClean) {
  const auto diags = lint_one("src/nfs/ok.cpp", R"cpp(
NfsResult<Unit> handler(FileHandle dir, RpcContext ctx = {});
RpcContext make(net::HostId self, std::uint32_t xid, std::uint64_t boot,
                SimDuration deadline) {
  RpcContext ctx{self, xid, boot};
  ctx.deadline = deadline;
  return ctx;
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

// ---------------------------------------------------------------------------
// S1 — storage backend seam
// ---------------------------------------------------------------------------

TEST(LintS1, FlagsConcreteBackendOutsideFs) {
  const auto diags = lint_one("src/kosha/bad.cpp", R"cpp(
#include "fs/local_fs.hpp"
void f() { kosha::fs::LocalFs store; (void)store; }
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "S1");
  EXPECT_EQ(diags[0].slug, "storage-seam");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintS1, FlagsCasFsInBench) {
  const auto diags = lint_one("bench/bad_bench.cpp", R"cpp(
void f() { kosha::fs::CasFs* store = nullptr; (void)store; }
)cpp");
  EXPECT_EQ(rules_of(diags), (std::vector<std::string>{"S1"}));
}

TEST(LintS1, AllowsConcreteTypesInFsLayerAndTests) {
  const std::string src = R"cpp(
void f() { kosha::fs::LocalFs a; kosha::fs::CasFs* b = nullptr; (void)a; (void)b; }
)cpp";
  EXPECT_TRUE(lint_one("src/fs/cas_fs.cpp", src).empty());
  EXPECT_TRUE(lint_one("tests/test_storage_backend.cpp", src).empty());
}

TEST(LintS1, IgnoresCommentsAndStrings) {
  // Doc comments explaining the LocalFs/CasFs split are fine anywhere; the
  // tokenizer never sees comments or string literals.
  const auto diags = lint_one("src/kosha/ok.cpp", R"cpp(
// LocalFs is wrapped by CasFs; see fs/storage_backend.hpp.
const char* kName = "LocalFs";
)cpp");
  EXPECT_TRUE(diags.empty());
}

TEST(LintS1, InterfaceUseIsClean) {
  const auto diags = lint_one("src/kosha/ok.cpp", R"cpp(
#include "fs/storage_backend.hpp"
void f(kosha::fs::StorageBackend& store) { (void)store.kind(); }
std::unique_ptr<kosha::fs::StorageBackend> g() { return kosha::fs::make_backend({}); }
)cpp");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// H1 — header hygiene
// ---------------------------------------------------------------------------

TEST(LintH1, FlagsMissingPragmaOnce) {
  const auto diags = lint_one("src/kosha/bad.hpp", R"cpp(
struct S { int x = 0; };
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "H1");
  EXPECT_EQ(diags[0].slug, "header");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(LintH1, FlagsUsingNamespaceInHeader) {
  const auto diags = lint_one("src/kosha/bad.hpp", R"cpp(
#pragma once
using namespace std;
)cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "H1");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintH1, CleanHeaderPasses) {
  const auto diags = lint_one("src/kosha/ok.hpp", R"cpp(
#pragma once
namespace kosha {
struct S { int x = 0; };
}  // namespace kosha
)cpp");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// Output and exit codes
// ---------------------------------------------------------------------------

TEST(LintOutput, ExitCodesAndFormats) {
  const auto clean = lint_one("src/kosha/ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(kosha::lint::exit_code(clean), 0);

  const auto bad = lint_one("src/kosha/bad.cpp", R"cpp(
void f() { auto r = rand(); (void)r; }
)cpp");
  EXPECT_EQ(kosha::lint::exit_code(bad), 1);
  ASSERT_EQ(bad.size(), 1u);

  const std::string text = kosha::lint::to_text(bad);
  EXPECT_NE(text.find("src/kosha/bad.cpp:2: error:"), std::string::npos);
  EXPECT_NE(text.find("[D1]"), std::string::npos);

  const std::string json = kosha::lint::to_json(bad, 1);
  EXPECT_NE(json.find("\"violations\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"D1\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
}

TEST(LintOutput, DiagnosticsSortedDeterministically) {
  Linter linter;
  linter.add_source("src/z.cpp", "void f() { auto r = rand(); (void)r; }\n");
  linter.add_source("src/a.cpp", "void f() { auto r = rand(); (void)r; }\n");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].file, "src/a.cpp");
  EXPECT_EQ(diags[1].file, "src/z.cpp");
}

TEST(LintOutput, SarifCarriesRulesAndResults) {
  const auto bad = lint_one("src/kosha/bad.cpp", R"cpp(
void f() { auto r = rand(); (void)r; }
)cpp");
  ASSERT_EQ(bad.size(), 1u);
  const std::string sarif = kosha::lint::to_sarif(bad);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"D1\""), std::string::npos);      // rule metadata
  EXPECT_NE(sarif.find("\"ruleId\": \"D1\""), std::string::npos);  // the result
  EXPECT_NE(sarif.find("src/kosha/bad.cpp"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 2"), std::string::npos);
}

TEST(LintOutput, RuleDocsCoverEveryRuleId) {
  const auto& docs = kosha::lint::rule_docs();
  std::vector<std::string> ids;
  for (const auto& d : docs) ids.push_back(d.rule);
  for (const char* rule : {"D1", "D2", "D3", "D4", "R1", "A1", "P1", "P2", "P3",
                           "P4", "S1", "H1", "E1"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end()) << rule;
  }
  for (const auto& d : docs) {
    EXPECT_FALSE(d.slug.empty()) << d.rule;
    EXPECT_FALSE(d.summary.empty()) << d.rule;
    EXPECT_FALSE(d.detail.empty()) << d.rule;
  }
}

// ---------------------------------------------------------------------------
// Call-graph construction (phase 1b) via the edge_list()/graph_dot() seams
// ---------------------------------------------------------------------------

std::vector<std::string> edges_of(const std::string& path, const std::string& src) {
  Linter linter;
  linter.add_source(path, src);
  (void)linter.run();  // kosha-lint: allow(ignore-status): graph inspection only
  return linter.edge_list();
}

bool has_edge(const std::vector<std::string>& edges, const std::string& want) {
  return std::find(edges.begin(), edges.end(), want) != edges.end();
}

TEST(LintGraph, DirectFreeCallAndQualifiedCall) {
  const auto edges = edges_of("src/kosha/g.cpp", R"cpp(
void leaf(int n);
struct C { static void go(int v); };
void caller(int v) {
  leaf(v);
  C::go(v);
}
)cpp");
  EXPECT_TRUE(has_edge(edges, "caller -> leaf [direct]"));
  EXPECT_TRUE(has_edge(edges, "caller -> C::go [direct]"));
}

TEST(LintGraph, MethodResolvedThroughReceiverType) {
  const auto edges = edges_of("src/kosha/g.cpp", R"cpp(
struct C { void m(int v); };
void C::m(int v) {}
void caller(C& c_, int v) { c_.m(v); }
)cpp");
  EXPECT_TRUE(has_edge(edges, "caller -> C::m [resolved]"));
}

TEST(LintGraph, ThisAndPlainCallsResolveToOwnClass) {
  const auto edges = edges_of("src/kosha/g.cpp", R"cpp(
struct D { void a(); void b(); void c(); };
void D::a() {
  this->b();
  c();
}
)cpp");
  EXPECT_TRUE(has_edge(edges, "D::a -> D::b [resolved]"));
  EXPECT_TRUE(has_edge(edges, "D::a -> D::c [resolved]"));
}

TEST(LintGraph, UnknownReceiverOverApproximatesByNameAndArity) {
  const auto edges = edges_of("src/kosha/g.cpp", R"cpp(
struct A { void m(int v); };
struct B { void m(int v); };
struct Z { void m(int v, int w); };
void caller(Unknown* x, int v) { x->m(v); }
)cpp");
  // Both compatible-arity methods are linked; the two-arg one is not.
  EXPECT_TRUE(has_edge(edges, "caller -> A::m [overapprox]"));
  EXPECT_TRUE(has_edge(edges, "caller -> B::m [overapprox]"));
  EXPECT_FALSE(has_edge(edges, "caller -> Z::m [overapprox]"));
}

TEST(LintGraph, RecursionYieldsSelfEdge) {
  const auto edges = edges_of("src/kosha/g.cpp", R"cpp(
void r(int n) {
  if (n) r(n - 1);
}
)cpp");
  EXPECT_TRUE(has_edge(edges, "r -> r [direct]"));
}

TEST(LintGraph, EdgeAnnotationAddsHandAssertedEdge) {
  const auto edges = edges_of("src/kosha/g.cpp", R"cpp(
struct Worker { void run(); };
void Worker::run() {}
void pump(int q) {
  // kosha-lint: edge(Worker::run): the queue only ever holds Worker::run thunks
  drain(q);
}
)cpp");
  EXPECT_TRUE(has_edge(edges, "pump -> Worker::run [annotated]"));
}

TEST(LintGraph, DotDumpIsDeterministicAndStylesEdgeKinds) {
  const std::string src = R"cpp(
struct A { void m(int v); };
struct B { void m(int v); };
struct Worker { void run(); };
void Worker::run() {}
void leaf(int n);
void caller(Unknown* x, int v) {
  leaf(v);
  x->m(v);
  // kosha-lint: edge(Worker::run): drained thunks are always Worker::run
  drain(v);
}
)cpp";
  Linter a;
  a.add_source("src/kosha/g.cpp", src);
  (void)a.run();  // kosha-lint: allow(ignore-status): graph inspection only
  const std::string dot = a.graph_dot();
  EXPECT_NE(dot.find("digraph kosha_calls {"), std::string::npos);
  EXPECT_NE(dot.find("\"caller/2\" -> \"leaf/1\";"), std::string::npos);
  EXPECT_NE(dot.find("[style=dashed];"), std::string::npos);         // over-approx
  EXPECT_NE(dot.find("[color=red, penwidth=2];"), std::string::npos);  // annotated

  Linter b;
  b.add_source("src/kosha/g.cpp", src);
  (void)b.run();  // kosha-lint: allow(ignore-status): graph inspection only
  EXPECT_EQ(dot, b.graph_dot());
}

// ---------------------------------------------------------------------------
// D4 — transitive determinism (event-reachable sinks)
// ---------------------------------------------------------------------------
// Fixtures use sleep_for as the sink; D3 (blocking sleep) also fires on the
// same token by design, so the D4 tests filter for their own rule.

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& diags,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

TEST(LintD4, FlagsSinkReachableFromScheduledCallback) {
  const auto d4 = of_rule(lint_one("src/kosha/d4.cpp", R"cpp(
void helper() { std::this_thread::sleep_for(pause); }
void tick() { helper(); }
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { tick(); });
}
)cpp"),
                          "D4");
  ASSERT_EQ(d4.size(), 1u) << kosha::lint::to_text(d4);
  EXPECT_EQ(d4[0].slug, "event-reachable");
  EXPECT_EQ(d4[0].line, 2);
  EXPECT_NE(d4[0].message.find("event-dispatch -> tick -> helper"),
            std::string::npos)
      << d4[0].message;
}

TEST(LintD4, EventLoopStepIsANamedRoot) {
  const auto d4 = of_rule(lint_one("src/common/d4.cpp", R"cpp(
void work() { std::this_thread::sleep_for(pause); }
void EventLoop::step() { work(); }
)cpp"),
                          "D4");
  ASSERT_EQ(d4.size(), 1u) << kosha::lint::to_text(d4);
  EXPECT_NE(d4[0].message.find("EventLoop::step -> work"), std::string::npos)
      << d4[0].message;
}

TEST(LintD4, AnnotationOnTheSinkFunctionSuppresses) {
  const auto d4 = of_rule(lint_one("src/kosha/d4.cpp", R"cpp(
// kosha-lint: allow(event-reachable): latency model stub, burns virtual time only
void helper() { std::this_thread::sleep_for(pause); }
void tick() { helper(); }
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { tick(); });
}
)cpp"),
                          "D4");
  EXPECT_TRUE(d4.empty()) << kosha::lint::to_text(d4);
}

TEST(LintD4, UnreachedSinkIsNotFlagged) {
  const auto d4 = of_rule(lint_one("src/kosha/d4.cpp", R"cpp(
void never_scheduled() { std::this_thread::sleep_for(pause); }
void tick() {}
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { tick(); });
}
)cpp"),
                          "D4");
  EXPECT_TRUE(d4.empty()) << kosha::lint::to_text(d4);
}

TEST(LintD4, AnnotatedEdgeCarriesReachabilityThroughTypeErasedSeam) {
  const auto d4 = of_rule(lint_one("src/kosha/d4.cpp", R"cpp(
void sink_fn() { std::this_thread::sleep_for(pause); }
struct Worker { void run(); };
void Worker::run() { sink_fn(); }
void pump(std::function<void()> f) {
  // kosha-lint: edge(Worker::run): the queued thunk is always Worker::run
  f();
}
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { pump(cb); });
}
)cpp"),
                          "D4");
  ASSERT_EQ(d4.size(), 1u) << kosha::lint::to_text(d4);
  EXPECT_NE(d4[0].message.find("pump -> Worker::run -> sink_fn"),
            std::string::npos)
      << d4[0].message;
}

// ---------------------------------------------------------------------------
// R1 — must-check statuses
// ---------------------------------------------------------------------------

TEST(LintR1, FlagsBareDiscard) {
  const auto diags = lint_one("src/kosha/r1.cpp", R"cpp(
FsStatus do_write(int n);
void f(int n) { do_write(n); }
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].slug, "must-check");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintR1, FlagsVoidCastWithoutReason) {
  const auto diags = lint_one("src/kosha/r1.cpp", R"cpp(
FsStatus do_write(int n);
void f(int n) { (void)do_write(n); }
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].slug, "ignore-status");
}

TEST(LintR1, AnnotatedVoidCastIsClean) {
  const auto diags = lint_one("src/kosha/r1.cpp", R"cpp(
FsStatus do_write(int n);
void f(int n) {
  // kosha-lint: allow(ignore-status): best-effort cleanup, failure leaves no residue
  (void)do_write(n);
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintR1, ConsumedFormsAreClean) {
  const auto diags = lint_one("src/kosha/r1.cpp", R"cpp(
FsStatus do_write(int n);
FsStatus g(int n) {
  FsStatus s = do_write(n);
  if (do_write(n) == FsStatus::kOk) return s;
  return do_write(n);
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintR1, ResolvedMethodCallMustBeChecked) {
  const auto diags = lint_one("src/kosha/r1.cpp", R"cpp(
struct Store { NfsResult<Unit> flush(int n); };
void f(Store& store_, int n) { store_.flush(n); }
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].slug, "must-check");
}

TEST(LintR1, NonStatusAndUnknownCalleesAreClean) {
  const auto diags = lint_one("src/kosha/r1.cpp", R"cpp(
int counter(int n);
void f(int n) {
  counter(n);
  mystery(n);
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

// ---------------------------------------------------------------------------
// A1 — hot-path allocation audit
// ---------------------------------------------------------------------------

TEST(LintA1, FlagsStringConstructionOnHotPath) {
  const auto diags = lint_one("src/kosha/a1.cpp", R"cpp(
void hot_path() { std::string label = build(); }
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { hot_path(); });
}
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "A1");
  EXPECT_EQ(diags[0].slug, "hot-alloc");
  EXPECT_NE(diags[0].message.find("event-dispatch -> hot_path"), std::string::npos)
      << diags[0].message;
}

TEST(LintA1, FlagsNewOnHotPath) {
  const auto diags = lint_one("src/kosha/a1.cpp", R"cpp(
void hot_path(int n) { use(new Thing(n)); }
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { hot_path(seq); });
}
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "A1");
  EXPECT_NE(diags[0].message.find("`new`"), std::string::npos) << diags[0].message;
}

TEST(LintA1, FlagsNodeMapInsertOnHotPath) {
  const auto diags = lint_one("src/kosha/a1.cpp", R"cpp(
struct S { std::map<int, int> table_; };
void hot_path(S& s, int x) { s.table_.insert(x); }
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { hot_path(s, x); });
}
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "A1");
  EXPECT_NE(diags[0].message.find("`table_`"), std::string::npos) << diags[0].message;
}

TEST(LintA1, AllowAnnotationStopsPropagationThroughSubtree) {
  const auto diags = lint_one("src/kosha/a1.cpp", R"cpp(
void helper_alloc() { std::string s = make(); }
// kosha-lint: allow(hot-alloc): scratch rebuilt once per epoch, pre-sized
void sanctioned() { helper_alloc(); }
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { sanctioned(); });
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintA1, LocalVectorShadowingANodeMapNameIsClean) {
  // `out` is a node-based map in one TU but a local std::vector here; the
  // contiguous local shadows the repo-global container verdict.
  Linter linter;
  linter.add_source("src/kosha/maps.cpp", R"cpp(
struct M { std::map<int, int> out; };
)cpp");
  linter.add_source("src/kosha/a1.cpp", R"cpp(
void hot_path(int y) {
  std::vector<int> out = seed();
  out.insert(out.end(), y);
}
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { hot_path(y); });
}
)cpp");
  const auto diags = linter.run();
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintA1, UnreachedAllocationIsClean) {
  const auto diags = lint_one("src/kosha/a1.cpp", R"cpp(
void cold_path() { std::string s = build(); }
void wire(EventLoop& loop) {
  loop.schedule_after(delay, [] { tick(); });
}
void tick() {}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

// ---------------------------------------------------------------------------
// P4 — deadline propagation
// ---------------------------------------------------------------------------

TEST(LintP4, FlagsChildContextWithoutDeadline) {
  const auto diags = lint_one("src/kosha/p4.cpp", R"cpp(
void forward(RpcContext parent) {
  RpcContext child{parent.client, parent.xid, parent.boot};
  send(child);
}
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "P4");
  EXPECT_EQ(diags[0].slug, "deadline-prop");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintP4, PropagatedDeadlineIsClean) {
  const auto diags = lint_one("src/kosha/p4.cpp", R"cpp(
void forward(RpcContext parent) {
  RpcContext child{parent.client, parent.xid, parent.boot};
  child.deadline = parent.deadline;
  send(child);
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintP4, AnnotationWithReasonSuppresses) {
  const auto diags = lint_one("src/kosha/p4.cpp", R"cpp(
void probe(RpcContext parent) {
  // kosha-lint: allow(deadline-prop): fire-and-forget probe, no caller budget to inherit
  RpcContext child{parent.client, parent.xid, parent.boot};
  send(child);
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

TEST(LintP4, OutsideTheRpcPathsIsClean) {
  const auto diags = lint_one("src/sim/p4.cpp", R"cpp(
void forward(RpcContext parent) {
  RpcContext child{parent.client, parent.xid, parent.boot};
  send(child);
}
)cpp");
  EXPECT_TRUE(diags.empty()) << kosha::lint::to_text(diags);
}

// ---------------------------------------------------------------------------
// E1 — edge-annotation hygiene
// ---------------------------------------------------------------------------

TEST(LintE1, EdgeWithoutReasonIsFlagged) {
  const auto diags = lint_one("src/kosha/e1.cpp", R"cpp(
struct Worker { void run(); };
void f(int q) {
  // kosha-lint: edge(Worker::run)
  drain(q);
}
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "E1");
  EXPECT_EQ(diags[0].slug, "edge");
  EXPECT_NE(diags[0].message.find("no reason"), std::string::npos) << diags[0].message;
}

TEST(LintE1, EdgeWithUnresolvableTargetIsFlagged) {
  const auto diags = lint_one("src/kosha/e1.cpp", R"cpp(
void f(int q) {
  // kosha-lint: edge(NoSuch::fn): the queue always holds this
  drain(q);
}
)cpp");
  ASSERT_EQ(diags.size(), 1u) << kosha::lint::to_text(diags);
  EXPECT_EQ(diags[0].rule, "E1");
  EXPECT_NE(diags[0].message.find("names no indexed function"), std::string::npos)
      << diags[0].message;
}

}  // namespace
