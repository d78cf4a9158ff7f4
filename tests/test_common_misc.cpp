// Tests for the remaining common utilities: thread pool / parallel_for,
// CLI parsing, table rendering, and the virtual clock.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/cli.hpp"
#include "common/sim_clock.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace kosha {
namespace {

// --- parallel_for / ThreadPool ---------------------------------------------

TEST(ParallelFor, EveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SingleThreadFallback) {
  int sum = 0;  // no atomics needed: single thread
  parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  EXPECT_EQ(pool.thread_count(), 2u);
}

// --- CliArgs ----------------------------------------------------------------

std::vector<char*> make_argv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

TEST(CliArgs, SpaceAndEqualsForms) {
  std::vector<std::string> storage{"prog", "--runs", "7", "--seed=42", "--verbose",
                                   "--clients=1,4,,16"};
  auto argv = make_argv(storage);
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_sizes("clients", "2"), (std::vector<std::size_t>{1, 4, 16}));
  EXPECT_EQ(args.get_sizes("nodes", "64,256"), (std::vector<std::size_t>{64, 256}));
  EXPECT_EQ(args.get_int("runs", 0), 7);
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("missing", 5), 5);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.5), 0.5);
}

TEST(CliArgs, UnknownFlagDetection) {
  std::vector<std::string> storage{"prog", "--runs", "7", "--oops", "1"};
  auto argv = make_argv(storage);
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.check_known("runs,seed").find("oops") != std::string::npos);
  EXPECT_TRUE(args.check_known("runs,oops").empty());
}

TEST(CliArgs, RejectsPositionalArguments) {
  std::vector<std::string> storage{"prog", "positional"};
  auto argv = make_argv(storage);
  EXPECT_THROW(CliArgs(static_cast<int>(argv.size()), argv.data()), std::invalid_argument);
}

// --- TextTable ---------------------------------------------------------------

TEST(TextTable, AlignsColumnsAndCsv) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(table.to_csv(), "name,value\na,1\nlonger,22\n");
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_EQ(table.to_csv(), "a,b,c\nonly,,\n");
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.0563, 1), "5.6%");
}

// --- SimClock ----------------------------------------------------------------

TEST(SimClock, AdvanceAccumulates) {
  SimClock clock;
  clock.advance(SimDuration::millis(1.5));
  clock.advance(SimDuration::micros(500));
  EXPECT_DOUBLE_EQ(clock.now().to_millis(), 2.0);
}

TEST(SimClock, StopwatchMeasuresWindow) {
  SimClock clock;
  clock.advance(SimDuration::seconds(5));
  const SimStopwatch watch(clock);
  clock.advance(SimDuration::seconds(3));
  EXPECT_DOUBLE_EQ(watch.elapsed().to_seconds(), 3.0);
}

TEST(SimDuration, ConversionsAndArithmetic) {
  EXPECT_EQ(SimDuration::seconds(2).ns, 2'000'000'000);
  EXPECT_EQ((SimDuration::millis(1) + SimDuration::micros(500)).ns, 1'500'000);
  EXPECT_EQ((SimDuration::millis(2) - SimDuration::millis(1)).ns, 1'000'000);
  EXPECT_EQ((SimDuration::micros(10) * 3).ns, 30'000);
  EXPECT_LT(SimDuration::micros(1), SimDuration::millis(1));
}

}  // namespace
}  // namespace kosha
