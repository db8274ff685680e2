// CSV writer, flags parser, thread pool, logging helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace gs::util {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
}

TEST(Csv, WritesRows) {
  const std::string path = temp_path("test.csv");
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c"});
    csv.write_row({"1", "2"});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,\"b,c\"");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

TEST(Flags, DefaultsAndOverrides) {
  Flags flags;
  flags.define_int("count", 5, "a count");
  flags.define("name", "bob", "a name");
  flags.define_bool("verbose", false, "verbosity");
  flags.define_double("rate", 1.5, "a rate");

  const char* argv[] = {"prog", "--count=7", "--verbose", "--rate", "2.5"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_EQ(flags.get("name"), "bob");
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW((void)flags.parse(2, const_cast<char**>(argv)), std::runtime_error);
}

TEST(Flags, BadIntThrows) {
  Flags flags;
  flags.define_int("n", 1, "");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_THROW((void)flags.get_int("n"), std::runtime_error);
}

TEST(Flags, MissingValueForTrailingFlagThrowsNamingTheFlag) {
  // A value-taking flag at the end of argv must fail loudly (naming the
  // offending flag), never fall through with the default silently.
  Flags flags;
  flags.define_int("count", 5, "a count");
  const char* argv[] = {"prog", "--count"};
  try {
    (void)flags.parse(2, const_cast<char**>(argv));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("--count"), std::string::npos)
        << "the error must name the flag: " << error.what();
  }
}

TEST(Flags, ExplicitBoolValueForms) {
  // Bare `--flag` means true; `--flag=false` (and friends) must turn a
  // defaulted-true flag off.
  Flags flags;
  flags.define_bool("on-by-default", true, "");
  flags.define_bool("off-by-default", false, "");
  const char* argv[] = {"prog", "--on-by-default=false", "--off-by-default"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.get_bool("on-by-default"));
  EXPECT_TRUE(flags.get_bool("off-by-default"));
}

TEST(Flags, BareBoolDoesNotConsumeTheNextToken) {
  // `--verbose false` keeps "false" as a positional: booleans only take a
  // value through the `=` form, so a trailing bare bool is always legal.
  Flags flags;
  flags.define_bool("verbose", false, "");
  const char* argv[] = {"prog", "--verbose", "false"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.get_bool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "false");

  Flags trailing;
  trailing.define_bool("verbose", false, "");
  const char* argv2[] = {"prog", "--verbose"};
  ASSERT_TRUE(trailing.parse(2, const_cast<char**>(argv2)));
  EXPECT_TRUE(trailing.get_bool("verbose"));
}

TEST(Flags, ParseCliTurnsEveryBadFlagIntoExitStatusTwo) {
  // A program's main returns parse_cli's status instead of dying on an
  // uncaught exception: unknown flags, missing values and malformed typed
  // values (caught up front, not at the later getter) all yield 2.
  const auto status_of = [](std::vector<const char*> argv) {
    Flags flags;
    flags.define_int("count", 5, "a count");
    flags.define_double("rate", 1.5, "a rate");
    flags.define_bool("verbose", false, "verbosity");
    flags.define("name", "bob", "a name");
    return flags.parse_cli(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  };
  EXPECT_EQ(status_of({"prog", "--quick"}), 2);
  EXPECT_EQ(status_of({"prog", "--count"}), 2);
  EXPECT_EQ(status_of({"prog", "--count=abc"}), 2);
  EXPECT_EQ(status_of({"prog", "--rate", "fast"}), 2);
  EXPECT_EQ(status_of({"prog", "--verbose=maybe"}), 2);
  EXPECT_EQ(status_of({"prog", "--help"}), 0);
  EXPECT_EQ(status_of({"prog", "--count=7", "--rate=2", "--verbose", "--name=x"}), std::nullopt);
}

TEST(Flags, Positional) {
  Flags flags;
  const char* argv[] = {"prog", "file1", "file2"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1");
}

TEST(Flags, UsageListsFlags) {
  Flags flags;
  flags.define_int("alpha", 1, "the alpha");
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the alpha"), std::string::npos);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(50,
                                 [](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("unlucky");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i % 7)); });
  int expected = 0;
  for (int i = 0; i < 1000; ++i) expected += i % 7;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, RunBatchCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  pool.run_batch(200, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunBatchSingleLaneRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.run_batch(16, 1, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, RunBatchZeroIterations) {
  ThreadPool pool(2);
  pool.run_batch(0, 4, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, RunBatchPropagatesFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_batch(50, 4,
                              [](std::size_t i) {
                                if (i == 13) throw std::runtime_error("unlucky");
                              }),
               std::runtime_error);
}

TEST(ThreadPool, RunBatchInsideSaturatedPoolCannotDeadlock) {
  // Every worker is busy inside a parallel_for iteration that itself calls
  // run_batch — the sharded engine under an experiment sweep.  The caller
  // lane must drain each batch even though no worker is ever free.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.run_batch(32, 4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * 32);
}

TEST(ThreadPool, RunBatchMoreLanesThanWork) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(3);
  pool.run_batch(3, 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunChunksCoversEveryIndexOnceInContiguousChunks) {
  for (const std::size_t n : {0u, 1u, 5u, 1000u}) {
    for (const std::size_t lanes : {0u, 1u, 3u, 8u}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> calls{0};
      run_chunks(n, lanes, [&](std::size_t begin, std::size_t end) {
        EXPECT_LE(begin, end);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        calls.fetch_add(1);
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n " << n << " lanes " << lanes;
      EXPECT_EQ(calls.load(), static_cast<int>(std::max<std::size_t>(1, lanes)));
    }
  }
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::kInfo);
}

TEST(Logging, SetAndGetLevel) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  GS_LOG_DEBUG << "should be suppressed";
  set_log_level(before);
}

}  // namespace
}  // namespace gs::util
