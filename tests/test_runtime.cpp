#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/parallel.hpp"
#include "runtime/result_cache.hpp"
#include "runtime/rng_stream.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace si::runtime;

// ---------------------------------------------------------------- pool

TEST(ThreadPool, StartStopAndResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int k = 0; k < 100; ++k)
    futures.push_back(pool.submit([k] { return k * k; }));
  for (int k = 0; k < 100; ++k) EXPECT_EQ(futures[k].get(), k * k);
}

TEST(ThreadPool, DrainsPendingTasksOnShutdown) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int k = 0; k < 64; ++k)
      pool.submit([&ran] { ran.fetch_add(1); });
  }  // destructor must run everything queued, then join
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("trial exploded");
  });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, OnWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  auto inside = pool.submit([&pool] { return pool.on_worker_thread(); });
  EXPECT_TRUE(inside.get());
}

TEST(ThreadPool, SingleWorkerPoolStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

// ---------------------------------------------------------- parallel_for

TEST(ParallelFor, ZeroItemsNeverCallsBody) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, OneItem) {
  std::atomic<int> sum{0};
  parallel_for(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ParallelFor, FewerItemsThanThreads) {
  set_thread_count(8);
  std::vector<std::atomic<int>> touched(3);
  parallel_for(
      3,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
      },
      /*grain=*/1);
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
  set_thread_count(0);
}

TEST(ParallelFor, CoversRangeExactlyOnceForAwkwardGrains) {
  for (std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{1000}}) {
    std::vector<std::atomic<int>> touched(257);
    parallel_for(
        257,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
        },
        grain);
    long total = 0;
    for (auto& t : touched) total += t.load();
    EXPECT_EQ(total, 257);
  }
}

TEST(ParallelFor, SingleThreadConfigRunsInline) {
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  parallel_for(100, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  set_thread_count(0);
}

TEST(ParallelFor, ExceptionInBodyPropagates) {
  set_thread_count(4);
  EXPECT_THROW(parallel_for(
                   100,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 0) throw std::invalid_argument("bad chunk");
                   },
                   /*grain=*/10),
               std::invalid_argument);
  set_thread_count(0);
}

TEST(ParallelFor, NestedCallRunsInlineInsteadOfDeadlocking) {
  set_thread_count(2);
  std::atomic<long> sum{0};
  parallel_for(
      8,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          // Inner region from a pool worker must not block on the pool.
          parallel_for(4, [&](std::size_t b, std::size_t e) {
            sum.fetch_add(static_cast<long>(e - b));
          });
        }
      },
      /*grain=*/1);
  EXPECT_EQ(sum.load(), 8 * 4);
  set_thread_count(0);
}

TEST(ParallelMap, PreservesOrder) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  const auto out =
      parallel_map(items, [](const int& v) { return 2 * v + 1; }, 1);
  ASSERT_EQ(out.size(), items.size());
  for (int k = 0; k < 100; ++k) EXPECT_EQ(out[static_cast<std::size_t>(k)], 2 * k + 1);
}

// ------------------------------------------------------------- rng

TEST(RngStream, Splitmix64KnownVector) {
  // Reference outputs of splitmix64 from seed 0 (Steele/Lea/Flood).
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64_next(s), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64_next(s), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64_next(s), 0x06C45D188009454FULL);
}

TEST(RngStream, TrialSeedMatchesHistoricalFormula) {
  // The serial monte_carlo contract: changing this breaks every
  // published number in the benches.
  EXPECT_EQ(trial_seed(1, 0), 0x9E3779B97F4A7C15ULL + 1);
  EXPECT_EQ(trial_seed(7, 3), 7 * 0x9E3779B97F4A7C15ULL +
                                  3 * 0xD1B54A32D192ED03ULL + 1);
}

TEST(RngStream, StreamsAreDecorrelatedAndDeterministic) {
  StreamSplitter split(42);
  EXPECT_EQ(split.seed_of(5), StreamSplitter(42).seed_of(5));
  EXPECT_NE(split.seed_of(0), split.seed_of(1));
  auto a = split.stream(0);
  auto b = split.stream(1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngStream, UniformInRangeNormalHasMoments) {
  RngStream rng(123);
  double s1 = 0.0, s2 = 0.0;
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double g = rng.normal();
    s1 += g;
    s2 += g * g;
  }
  EXPECT_NEAR(s1 / n, 0.0, 0.03);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(RngStream, ParallelStreamDrawsMatchSerialAcrossThreadCounts) {
  // The determinism contract end-to-end: per-index streams drawn in a
  // parallel_for must reproduce the serial sequence bit-for-bit.
  auto draw_all = [](unsigned threads) {
    set_thread_count(threads);
    std::vector<double> out(97);
    parallel_for(
        out.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            RngStream rng(stream_seed(7, i));
            out[i] = rng.normal();
          }
        },
        /*grain=*/1);
    set_thread_count(0);
    return out;
  };
  const auto serial = draw_all(1);
  EXPECT_EQ(serial, draw_all(2));
  EXPECT_EQ(serial, draw_all(8));
}

// ------------------------------------------------------------- cache

TEST(ResultCache, HitMissCounters) {
  ResultCache<double> cache(8);
  EXPECT_FALSE(cache.lookup(1));
  cache.store(1, 3.5);
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit);
  EXPECT_DOUBLE_EQ(*hit, 3.5);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.evictions, 0u);
}

TEST(ResultCache, LruEviction) {
  ResultCache<double> cache(2);
  cache.store(1, 1.0);
  cache.store(2, 2.0);
  EXPECT_TRUE(cache.lookup(1));  // 1 is now most-recent
  cache.store(3, 3.0);           // evicts 2 (least recent)
  EXPECT_FALSE(cache.lookup(2));
  EXPECT_TRUE(cache.lookup(1));
  EXPECT_TRUE(cache.lookup(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, SharedSnapshotSurvivesEviction) {
  // A caller that holds the shared_ptr from lookup() must keep a valid
  // value even after the entry is evicted — eviction drops the cache's
  // reference, not the caller's.
  ResultCache<std::vector<double>> cache(1);
  cache.store(1, std::vector<double>{4.0, 5.0});
  const auto held = cache.lookup(1);
  ASSERT_TRUE(held);
  cache.store(2, std::vector<double>{6.0});  // evicts key 1
  EXPECT_FALSE(cache.lookup(1));
  ASSERT_EQ(held->size(), 2u);
  EXPECT_DOUBLE_EQ((*held)[0], 4.0);
  EXPECT_DOUBLE_EQ((*held)[1], 5.0);
}

TEST(ResultCache, StoreSharedRejectsNull) {
  // A null entry would make lookup() hits indistinguishable from misses.
  ResultCache<double> cache(2);
  EXPECT_THROW(cache.store_shared(1, nullptr), std::invalid_argument);
}

TEST(ResultCache, GetOrComputeComputesOnce) {
  ResultCache<std::vector<double>> cache(4);
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return std::vector<double>{1.0, 2.0};
  };
  const auto a = cache.get_or_compute(9, compute);
  const auto b = cache.get_or_compute(9, compute);
  EXPECT_EQ(a, b);
  EXPECT_EQ(computed, 1);
}

TEST(ResultCache, ConcurrentAccessIsSafe) {
  ResultCache<double> cache(16);
  set_thread_count(4);
  parallel_for(
      1000,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t key = i % 32;
          cache.store(key, static_cast<double>(key));
          const auto v = cache.lookup(key);
          if (v) {
            EXPECT_DOUBLE_EQ(*v, static_cast<double>(key));
          }
        }
      },
      /*grain=*/25);
  set_thread_count(0);
}

TEST(ResultCache, ConcurrentEvictionPressureKeepsSnapshotsIntact) {
  // Eviction racing with lookup is exactly the shared-cache service
  // path: capacity far below the working set forces every store to
  // evict while other threads hold and read snapshots.  The TSan lane
  // proves the locking; the content checks prove readers never observe
  // a half-evicted value.
  ResultCache<std::vector<double>> cache(4);
  set_thread_count(8);
  parallel_for(
      2000,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t key = i % 64;  // 16x the capacity
          auto held = cache.get_or_compute(key, [key] {
            return std::vector<double>(32, static_cast<double>(key));
          });
          ASSERT_TRUE(held);
          ASSERT_EQ(held->size(), 32u);
          EXPECT_DOUBLE_EQ(held->front(), static_cast<double>(key));
          EXPECT_DOUBLE_EQ(held->back(), static_cast<double>(key));
          // Deliberately hold the snapshot across another thread's
          // evictions before re-reading it.
          const auto again = cache.lookup((key + 1) % 64);
          if (again) {
            EXPECT_DOUBLE_EQ(again->front(), (key + 1) % 64);
          }
          EXPECT_DOUBLE_EQ(held->front(), static_cast<double>(key));
        }
      },
      /*grain=*/16);
  set_thread_count(0);
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ResultCache, Fnv1aDigestIsOrderSensitive) {
  const auto a = Fnv1a().u64(1).u64(2).digest();
  const auto b = Fnv1a().u64(2).u64(1).digest();
  EXPECT_NE(a, b);
  EXPECT_EQ(Fnv1a().str("sweep").f64(0.5).digest(),
            Fnv1a().str("sweep").f64(0.5).digest());
  EXPECT_NE(Fnv1a().f64(0.5).digest(), Fnv1a().f64(-0.5).digest());
}

// ------------------------------------------------------------- config

TEST(RuntimeConfig, SetThreadCountOverridesAndResets) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  EXPECT_EQ(global_pool().size(), 3u);
  set_thread_count(5);
  EXPECT_EQ(global_pool().size(), 5u);
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1u);
}

// --------------------------------------------------------- env parsing

// RAII setter so a throwing expectation can't leak the variable into
// later tests (the pool re-reads SI_RUNTIME_THREADS on every call).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(EnvParsing, UnsetOrEmptyMeansDefault) {
  ::unsetenv("SI_TEST_KNOB");
  EXPECT_FALSE(parse_env_long("SI_TEST_KNOB"));
  EXPECT_FALSE(parse_env_flag("SI_TEST_KNOB"));
  ScopedEnv env("SI_TEST_KNOB", "");
  EXPECT_FALSE(parse_env_long("SI_TEST_KNOB"));
  EXPECT_FALSE(parse_env_flag("SI_TEST_KNOB"));
}

TEST(EnvParsing, LongAcceptsExactNumbersOnly) {
  {
    ScopedEnv env("SI_TEST_KNOB", "8");
    EXPECT_EQ(parse_env_long("SI_TEST_KNOB"), 8);
  }
  {
    ScopedEnv env("SI_TEST_KNOB", "-3");
    EXPECT_EQ(parse_env_long("SI_TEST_KNOB"), -3);
  }
  // The regression that motivated the policy: "8x" used to strtol to 8.
  {
    ScopedEnv env("SI_TEST_KNOB", "8x");
    EXPECT_THROW(parse_env_long("SI_TEST_KNOB"), std::invalid_argument);
  }
  {
    ScopedEnv env("SI_TEST_KNOB", "abc");
    EXPECT_THROW(parse_env_long("SI_TEST_KNOB"), std::invalid_argument);
  }
  {
    ScopedEnv env("SI_TEST_KNOB", "99999999999999999999999");
    EXPECT_THROW(parse_env_long("SI_TEST_KNOB"), std::invalid_argument);
  }
  {  // in-range check is the caller's contract, not a silent clamp
    ScopedEnv env("SI_TEST_KNOB", "0");
    EXPECT_THROW(parse_env_long("SI_TEST_KNOB", 1, 64), std::invalid_argument);
  }
}

TEST(EnvParsing, FlagAcceptsDocumentedFormsOnly) {
  for (const char* t : {"1", "on", "true"}) {
    ScopedEnv env("SI_TEST_KNOB", t);
    EXPECT_EQ(parse_env_flag("SI_TEST_KNOB"), true) << t;
  }
  for (const char* f : {"0", "off", "false"}) {
    ScopedEnv env("SI_TEST_KNOB", f);
    EXPECT_EQ(parse_env_flag("SI_TEST_KNOB"), false) << f;
  }
  for (const char* bad : {"yes", "ON", "2", "tru"}) {
    ScopedEnv env("SI_TEST_KNOB", bad);
    EXPECT_THROW(parse_env_flag("SI_TEST_KNOB"), std::invalid_argument) << bad;
  }
}

TEST(RuntimeConfig, MalformedThreadEnvThrowsInsteadOfTruncating) {
  // SI_RUNTIME_THREADS=8x historically ran on 8 threads; the strict
  // parser must surface the misconfiguration at the first lookup.
  set_thread_count(0);  // make thread_count() consult the environment
  {
    ScopedEnv env("SI_RUNTIME_THREADS", "8x");
    EXPECT_THROW(thread_count(), std::invalid_argument);
  }
  {
    ScopedEnv env("SI_RUNTIME_THREADS", "0");
    EXPECT_THROW(thread_count(), std::invalid_argument);
  }
  {
    ScopedEnv env("SI_RUNTIME_THREADS", "6");
    EXPECT_EQ(thread_count(), 6u);
  }
  EXPECT_GE(thread_count(), 1u);  // unset again: hardware default
}

}  // namespace
