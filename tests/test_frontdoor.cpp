// Front-door serving layer (DESIGN.md §14): token-bucket admission,
// deterministic jittered backoff, the brownout ladder's hysteresis state
// machine, p2c shard routing, and the FrontDoor integration contracts —
// tier transitions under an injected virtual clock with gated workers,
// typed RetryAfterError rejections, and the never-silently-late deadline
// gate.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "roadseg/roadseg_net.hpp"
#include "runtime/engine.hpp"
#include "serve/backoff.hpp"
#include "serve/brownout.hpp"
#include "serve/front_door.hpp"
#include "serve/token_bucket.hpp"

namespace roadfusion::serve {
namespace {

using roadseg::RoadSegConfig;
using roadseg::RoadSegNet;
using runtime::InferenceResult;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kUs = 1;
constexpr int64_t kMs = 1000 * kUs;
constexpr int64_t kSecond = 1000 * kMs;

// ---------------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------------

TEST(TokenBucket, StartsFullAndRejectsWhenDrained) {
  TokenBucket bucket({/*rate_per_s=*/1.0, /*burst=*/2.0});
  EXPECT_TRUE(bucket.try_acquire(0).admitted);
  EXPECT_TRUE(bucket.try_acquire(0).admitted);
  const TokenBucket::Decision rejected = bucket.try_acquire(0);
  EXPECT_FALSE(rejected.admitted);
  // Empty bucket at 1 token/s: the next token matures in exactly 1 s.
  EXPECT_EQ(rejected.retry_after_ms, 1000);
}

TEST(TokenBucket, ContinuousRefillMaturesTokens) {
  TokenBucket bucket({/*rate_per_s=*/2.0, /*burst=*/1.0});
  EXPECT_TRUE(bucket.try_acquire(0).admitted);
  EXPECT_FALSE(bucket.try_acquire(100 * kMs).admitted);  // 0.2 tokens banked
  EXPECT_TRUE(bucket.try_acquire(500 * kMs).admitted);   // 1 token at 2/s
  EXPECT_FALSE(bucket.try_acquire(500 * kMs).admitted);
}

TEST(TokenBucket, BurstCapsBankedTokens) {
  TokenBucket bucket({/*rate_per_s=*/10.0, /*burst=*/3.0});
  // A long quiet period banks at most `burst` tokens.
  EXPECT_TRUE(bucket.try_acquire(0).admitted);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(bucket.try_acquire(100 * kSecond).admitted) << i;
  }
  // Third call in the same instant: bucket started that instant with 3.
  EXPECT_TRUE(bucket.try_acquire(100 * kSecond).admitted);
  EXPECT_FALSE(bucket.try_acquire(100 * kSecond).admitted);
}

TEST(TokenBucket, RetryAfterIsAtLeastOneMillisecond) {
  TokenBucket bucket({/*rate_per_s=*/10000.0, /*burst=*/1.0});
  EXPECT_TRUE(bucket.try_acquire(0).admitted);
  const TokenBucket::Decision rejected = bucket.try_acquire(0);
  ASSERT_FALSE(rejected.admitted);
  // One token matures in 0.1 ms; the hint still floors at 1 ms so clients
  // never busy-spin on a zero.
  EXPECT_GE(rejected.retry_after_ms, 1);
}

TEST(TokenBucket, NonPositiveRateMeansUnlimited) {
  TokenBucket bucket({/*rate_per_s=*/0.0, /*burst=*/1.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.try_acquire(0).admitted);
  }
}

TEST(TokenBucketTable, OverridesBeatDefaultLimits) {
  TokenBucketTable table({/*rate_per_s=*/0.0, /*burst=*/1.0},
                         {{"metered", {/*rate_per_s=*/1.0, /*burst=*/1.0}}});
  EXPECT_TRUE(table.try_acquire("free", 0).admitted);
  EXPECT_TRUE(table.try_acquire("free", 0).admitted);  // default: unlimited
  EXPECT_TRUE(table.try_acquire("metered", 0).admitted);
  EXPECT_FALSE(table.try_acquire("metered", 0).admitted);
  // Buckets are per tenant: `metered` being drained never throttles others.
  EXPECT_TRUE(table.try_acquire("free", 0).admitted);
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

TEST(Backoff, DeterministicUnderFixedSeed) {
  BackoffConfig config;
  config.base_ms = 4;
  config.cap_ms = 64;
  config.seed = 99;
  Backoff a(config);
  Backoff b(config);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.next_delay_ms(), b.next_delay_ms()) << "attempt " << i;
  }
}

TEST(Backoff, EqualJitterStaysInsideTheWindow) {
  BackoffConfig config;
  config.base_ms = 4;
  config.cap_ms = 64;
  Backoff backoff(config);
  for (int attempt = 0; attempt < 20; ++attempt) {
    const int64_t window =
        std::min<int64_t>(config.cap_ms, config.base_ms << std::min(attempt, 30));
    const int64_t delay = backoff.next_delay_ms();
    EXPECT_GE(delay, std::max<int64_t>(1, window / 2)) << "attempt " << attempt;
    EXPECT_LE(delay, window) << "attempt " << attempt;
  }
}

TEST(Backoff, ServerFloorWins) {
  BackoffConfig config;
  config.base_ms = 1;
  config.cap_ms = 8;
  Backoff backoff(config);
  // retry_after_ms far above the jitter window: the hint must win.
  EXPECT_EQ(backoff.next_delay_ms(/*floor_ms=*/500), 500);
}

TEST(Backoff, ResetRestartsTheScheduleNotTheStream) {
  BackoffConfig config;
  config.base_ms = 2;
  config.cap_ms = 1024;
  Backoff backoff(config);
  for (int i = 0; i < 6; ++i) {
    (void)backoff.next_delay_ms();
  }
  EXPECT_EQ(backoff.attempt(), 6);
  backoff.reset();
  EXPECT_EQ(backoff.attempt(), 0);
  // Attempt 0 window is [1, 2] again.
  const int64_t delay = backoff.next_delay_ms();
  EXPECT_GE(delay, 1);
  EXPECT_LE(delay, 2);
}

// ---------------------------------------------------------------------------
// Brownout ladder
// ---------------------------------------------------------------------------

BrownoutConfig ladder_config() {
  BrownoutConfig config;
  config.tier1_enter_ms = 50.0;
  config.tier1_exit_ms = 20.0;
  config.tier2_enter_ms = 100.0;
  config.tier2_exit_ms = 40.0;
  config.min_dwell_us = 250 * kMs;
  return config;
}

TEST(Brownout, EscalatesImmediatelyAndMultiTier) {
  BrownoutController ladder(ladder_config());
  EXPECT_EQ(ladder.observe(10.0, 0), 0);
  // A single observation far over tier2_enter jumps 0 -> 2 directly: the
  // request that sees the overload gets the tier-2 answer, not a request
  // one dwell period later.
  EXPECT_EQ(ladder.observe(500.0, kMs), 2);
  EXPECT_EQ(ladder.tier(), 2);
  EXPECT_EQ(ladder.entries()[2], 1u);
  EXPECT_EQ(ladder.entries()[1], 0u);
}

TEST(Brownout, DeEscalationWaitsForDwellAndStepsOneTier) {
  BrownoutController ladder(ladder_config());
  EXPECT_EQ(ladder.observe(500.0, 0), 2);
  // Pressure collapses instantly, but the ladder holds tier 2 until the
  // dwell elapses...
  EXPECT_EQ(ladder.observe(0.0, 100 * kMs), 2);
  EXPECT_EQ(ladder.observe(0.0, 249 * kMs), 2);
  // ...then steps down one tier per observation, not straight to 0.
  EXPECT_EQ(ladder.observe(0.0, 251 * kMs), 1);
  EXPECT_EQ(ladder.observe(0.0, 300 * kMs), 1);  // tier-1 dwell restarts
  EXPECT_EQ(ladder.observe(0.0, 502 * kMs), 0);
  EXPECT_EQ(ladder.entries()[0], 1u);
  EXPECT_EQ(ladder.entries()[1], 1u);
  EXPECT_EQ(ladder.entries()[2], 1u);
}

TEST(Brownout, HysteresisBandHoldsTheTier) {
  BrownoutController ladder(ladder_config());
  EXPECT_EQ(ladder.observe(60.0, 0), 1);
  // 30 ms sits between tier1_exit (20) and tier1_enter (50): no move in
  // either direction, ever — the boundary load cannot oscillate.
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(ladder.observe(30.0, i * kSecond), 1) << i;
  }
  // Below the exit threshold, with dwell long elapsed: down.
  EXPECT_EQ(ladder.observe(10.0, 20 * kSecond), 0);
}

TEST(Brownout, ReEscalationResetsDwell) {
  BrownoutController ladder(ladder_config());
  EXPECT_EQ(ladder.observe(200.0, 0), 2);
  EXPECT_EQ(ladder.observe(0.0, 300 * kMs), 1);
  EXPECT_EQ(ladder.observe(200.0, 310 * kMs), 2);  // back up immediately
  // The tier-2 dwell restarted at 310 ms: 500 ms is too early to descend.
  EXPECT_EQ(ladder.observe(0.0, 500 * kMs), 2);
  EXPECT_EQ(ladder.observe(0.0, 561 * kMs), 1);
  EXPECT_EQ(ladder.entries()[2], 2u);
}

// ---------------------------------------------------------------------------
// p2c shard routing
// ---------------------------------------------------------------------------

TEST(PickShard, SingleShardIsTrivial) {
  EXPECT_EQ(pick_shard(12345, {7}, 4), (std::pair<size_t, bool>{0, false}));
}

TEST(PickShard, ConsistentPrimaryOnBalancedFleet) {
  const std::vector<size_t> balanced = {3, 3, 3, 3};
  for (uint64_t hash : {1ull, 42ull, 0xdeadbeefull, 1ull << 60}) {
    const auto [shard, spilled] = pick_shard(hash, balanced, 4);
    EXPECT_EQ(shard, hash % balanced.size());
    EXPECT_FALSE(spilled);
    // Same hash, same answer — affinity is deterministic.
    EXPECT_EQ(pick_shard(hash, balanced, 4).first, shard);
  }
}

TEST(PickShard, SpillsOnlyPastTheMargin) {
  // hash 0 -> primary shard 0. Alternate is some other shard with depth 2.
  const size_t margin = 4;
  EXPECT_FALSE(pick_shard(0, {6, 2, 2, 2}, margin).second)
      << "6 vs 2 is exactly the margin; affinity must win ties";
  const auto [shard, spilled] = pick_shard(0, {7, 2, 2, 2}, margin);
  EXPECT_TRUE(spilled);
  EXPECT_NE(shard, 0u);
}

// ---------------------------------------------------------------------------
// FrontDoor integration (virtual clock + gated workers)
// ---------------------------------------------------------------------------

/// Worker gate: installed as pre_forward_hook, parks every worker until
/// open() — the test builds exact queue depths, then releases them.
class WorkerGate {
 public:
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::function<void(size_t)> hook() {
    return [this](size_t) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    };
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
};

class FrontDoorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.set_us(1 * kSecond);
    obs::set_clock(&clock_);
    RoadSegConfig net_config;
    net_config.scheme = core::FusionScheme::kWeightedSharing;
    net_config.stage_channels = {4, 6, 8};
    Rng rng(7);
    net_ = std::make_unique<RoadSegNet>(net_config, rng);
  }

  void TearDown() override { obs::set_clock(nullptr); }

  Tensor rgb(uint64_t seed = 1) {
    Rng rng(seed);
    return Tensor::uniform(Shape::chw(3, 8, 16), rng);
  }
  Tensor depth(uint64_t seed = 2) {
    Rng rng(seed);
    return Tensor::uniform(Shape::chw(1, 8, 16), rng);
  }

  /// One shard, one worker, generous ladder thresholds whose pressure is
  /// dominated by the depth-derived term (1 s per queued request), so the
  /// test controls the tier exactly via queue depth. The exit thresholds
  /// sit far above any real observed queue wait in this test, so only
  /// virtual-clock dwell gates de-escalation.
  FrontDoorConfig gated_config(WorkerGate& gate) {
    FrontDoorConfig config;
    config.shards = 1;
    config.engine.threads = 1;
    config.engine.max_batch = 1;
    config.engine.queue_capacity = 16;
    config.engine.pre_forward_hook = gate.hook();
    config.est_batch_service_ms = 1000.0;
    config.brownout.tier1_enter_ms = 1500.0;
    config.brownout.tier1_exit_ms = 700.0;
    config.brownout.tier2_enter_ms = 3500.0;
    config.brownout.tier2_exit_ms = 900.0;
    config.brownout.min_dwell_us = 250 * kMs;
    return config;
  }

  obs::VirtualClock clock_;
  std::unique_ptr<RoadSegNet> net_;
};

TEST_F(FrontDoorTest, BrownoutLadderShedsLowPriorityDeterministically) {
  WorkerGate gate;
  gate.close();
  FrontDoorConfig config = gated_config(gate);
  FrontDoor door(*net_, config);

  // Build pressure: the first request is popped by the (gated) worker and
  // pins it; the rest sit in the queue. Each queued request is 1 s of
  // estimated wait, and a submit observes the depth *before* its own
  // enqueue: observing 2 queued enters tier 1, observing 4 enters tier 2.
  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(door.submit(rgb(1), depth(1), {}));
  while (door.shard(0).queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(door.tier(), 0);
  futures.push_back(door.submit(rgb(2), depth(2), {}));  // observed 0
  futures.push_back(door.submit(rgb(3), depth(3), {}));  // observed 1
  EXPECT_EQ(door.tier(), 0);
  futures.push_back(door.submit(rgb(4), depth(4), {}));  // observed 2 -> tier 1
  EXPECT_EQ(door.tier(), 1);
  futures.push_back(door.submit(rgb(5), depth(5), {}));  // observed 3
  EXPECT_EQ(door.tier(), 1);

  // The next submit observes depth 4 -> tier 2; a low-priority request is
  // shed with a typed, actionable error by the very observation that
  // detected the overload.
  ServeOptions low;
  low.low_priority = true;
  low.tenant = "batch";
  try {
    (void)door.submit(rgb(6), depth(6), low);
    FAIL() << "tier-2 low-priority submit must shed";
  } catch (const RetryAfterError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kOverloaded);
    EXPECT_GE(e.retry_after_ms(), 1);
  }
  EXPECT_EQ(door.tier(), 2);

  // Tier 2: high-priority is still served, but forced degraded (RGB-only).
  futures.push_back(door.submit(rgb(7), depth(7), {}));

  gate.open();
  for (auto& future : futures) {
    (void)future.get();
  }
  // The forced-degraded response really went through the degraded path.
  FrontDoorStats stats = door.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.forced_degraded, 1u);
  EXPECT_EQ(stats.engine.requests_degraded, stats.forced_degraded);
  EXPECT_EQ(stats.tier_entries[1], 1u);
  EXPECT_EQ(stats.tier_entries[2], 1u);

  // De-escalation: queues drained, pressure ~0, but the ladder steps down
  // one tier per observation and only after the virtual dwell.
  EXPECT_EQ(door.tier(), 2);
  (void)door.submit(rgb(8), depth(8), {}).get();  // dwell not elapsed
  EXPECT_EQ(door.tier(), 2);
  clock_.advance_us(300 * kMs);
  (void)door.submit(rgb(9), depth(9), {}).get();
  EXPECT_EQ(door.tier(), 1);
  clock_.advance_us(300 * kMs);
  (void)door.submit(rgb(10), depth(10), {}).get();
  EXPECT_EQ(door.tier(), 0);
  stats = door.stats();
  EXPECT_EQ(stats.tier_entries[0], 1u);

  door.shutdown();
}

TEST_F(FrontDoorTest, TokenBucketRejectsWithExactRetryAfterOnVirtualClock) {
  FrontDoorConfig config;
  config.shards = 1;
  config.engine.threads = 1;
  config.engine.max_batch = 4;
  config.engine.queue_capacity = 16;
  config.default_limits.rate_per_s = 1.0;
  config.default_limits.burst = 2.0;
  FrontDoor door(*net_, config);

  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(door.submit(rgb(1), depth(1), {}));
  futures.push_back(door.submit(rgb(2), depth(2), {}));
  try {
    (void)door.submit(rgb(3), depth(3), {});
    FAIL() << "drained bucket must rate-limit";
  } catch (const RetryAfterError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kRateLimited);
    // Empty bucket at 1 token/s on a frozen virtual clock: exactly 1 s.
    EXPECT_EQ(e.retry_after_ms(), 1000);
  }
  // One virtual second later the token has matured.
  clock_.advance_us(1 * kSecond);
  futures.push_back(door.submit(rgb(4), depth(4), {}));
  for (auto& future : futures) {
    (void)future.get();
  }

  const FrontDoorStats stats = door.stats();
  EXPECT_EQ(stats.rate_limited, 1u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.submitted, 4u);
  door.shutdown();
}

TEST_F(FrontDoorTest, FullShardsRejectTypedNeverRawQueueFull) {
  WorkerGate gate;
  gate.close();
  FrontDoorConfig config = gated_config(gate);
  config.engine.queue_capacity = 2;
  // Keep the ladder out of the way: this test is about the queue-full
  // conversion, not shedding.
  config.brownout.tier1_enter_ms = 1e9;
  config.brownout.tier1_exit_ms = 1e8;
  config.brownout.tier2_enter_ms = 2e9;
  config.brownout.tier2_exit_ms = 2e8;
  FrontDoor door(*net_, config);

  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(door.submit(rgb(1), depth(1), {}));
  // Wait for the worker to pin request 1; requests 2 and 3 then fill the
  // 2-deep queue exactly.
  while (door.shard(0).queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  futures.push_back(door.submit(rgb(2), depth(2), {}));
  futures.push_back(door.submit(rgb(3), depth(3), {}));  // queue now full
  try {
    (void)door.submit(rgb(4), depth(4), {});
    FAIL() << "full shard must reject";
  } catch (const RetryAfterError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kOverloaded);
    EXPECT_GE(e.retry_after_ms(), 1);
  } catch (const runtime::QueueFullError&) {
    FAIL() << "raw QueueFullError escaped the front door";
  }
  gate.open();
  for (auto& future : futures) {
    (void)future.get();
  }
  const FrontDoorStats stats = door.stats();
  EXPECT_EQ(stats.shard_full, 1u);
  EXPECT_EQ(stats.admitted, 3u);
  door.shutdown();
}

TEST_F(FrontDoorTest, TwoShardFallbackServesWhenPrimaryIsFull) {
  // Two shards, tiny queues, workers gated: requests sharing one route
  // key all prefer the same primary, so once it fills, only the p2c
  // spill / queue-full fallback can place the rest on the other shard.
  // Slot accounting guarantees admission never depends on worker timing:
  // request 1 is pinned in the primary's gated worker, 2 queue on the
  // primary, and at most 2 land on the alternate's queue (its worker can
  // only help).
  WorkerGate gate;
  gate.close();
  FrontDoorConfig config = gated_config(gate);
  config.shards = 2;
  config.engine.queue_capacity = 2;
  config.brownout.tier1_enter_ms = 1e9;
  config.brownout.tier1_exit_ms = 1e8;
  config.brownout.tier2_enter_ms = 2e9;
  config.brownout.tier2_exit_ms = 2e8;
  config.spill_margin = 1;
  FrontDoor door(*net_, config);

  ServeOptions options;
  options.route_key = 42;
  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(door.submit(rgb(10), depth(10), options));
  // Wait for the primary's worker to pin request 1 (both queues empty).
  while (door.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 1; i < 5; ++i) {
    futures.push_back(door.submit(rgb(10 + i), depth(10 + i), options));
  }
  const FrontDoorStats mid = door.stats();
  EXPECT_EQ(mid.admitted, 5u);
  gate.open();
  for (auto& future : futures) {
    (void)future.get();
  }
  const FrontDoorStats stats = door.stats();
  EXPECT_EQ(stats.engine.requests_served, 5u);
  // Both shards served work: the fallback/spill actually moved requests.
  EXPECT_GT(stats.shards[0].requests_served, 0u);
  EXPECT_GT(stats.shards[1].requests_served, 0u);
  door.shutdown();
}

TEST_F(FrontDoorTest, ShardEnginesKeepTheSharedNetsCompiledPlans) {
  // Every shard's engine prepares the one shared net. A plan context that
  // still matches the parameters must survive that with the plans already
  // compiled into it, not be rebuilt once per shard.
  net_->set_training(false);
  net_->prepare_inference();
  (void)net_->predict(rgb(), depth());  // compiles the batch-1 fused plan
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& builds = registry.counter("roadfusion_plan_builds_total");
  obs::Counter& compiles = registry.counter("roadfusion_plan_compiles_total");
  const uint64_t builds_before = builds.value();
  const uint64_t compiles_before = compiles.value();
  FrontDoorConfig config;
  config.shards = 2;
  config.engine.threads = 1;
  config.engine.max_batch = 1;
  FrontDoor door(*net_, config);
  (void)door.submit(rgb(3), depth(3), ServeOptions{}).get();
  door.shutdown();
  EXPECT_EQ(builds.value(), builds_before)
      << "a shard's engine rebuilt the shared net's plan context";
  EXPECT_EQ(compiles.value(), compiles_before)
      << "a shard's engine dropped the plans the net had compiled";
}

// ---------------------------------------------------------------------------
// Never silently late (satellite of DESIGN.md §14): a deadline that
// expires *during* the forward resolves as DeadlineExceededError, counted
// timed_out — not delivered as a stale success.
// ---------------------------------------------------------------------------

TEST_F(FrontDoorTest, DeadlineExpiringMidForwardIsTypedNotSilentlyLate) {
  runtime::EngineConfig config;
  config.threads = 1;
  config.max_batch = 1;
  config.queue_capacity = 4;
  // The forward takes ~80 ms (hook sleep); the deadline is 30 ms. The
  // pop-time check passes (queue wait ~0), so only the respond-time gate
  // can catch it.
  config.pre_forward_hook = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  };
  runtime::InferenceEngine engine(*net_, config);

  runtime::SubmitOptions options;
  options.deadline_ms = 30;
  std::future<InferenceResult> future =
      engine.submit(rgb(), depth(), options);
  // Drain (joins the workers) before inspecting the exception: the caught
  // object is the same one the worker stored in the promise, and the
  // join's happens-before is what makes reading e.what() race-free.
  engine.shutdown(runtime::ShutdownMode::kDrain);
  try {
    (void)future.get();
    FAIL() << "mid-forward deadline expiry must not deliver a late result";
  } catch (const runtime::DeadlineExceededError& e) {
    EXPECT_NE(std::string(e.what()).find("mid-flight"), std::string::npos);
  }
  const runtime::RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_timed_out, 1u);
  EXPECT_EQ(stats.requests_served, 0u);
}

TEST_F(FrontDoorTest, GenerousDeadlineSurvivesTheForward) {
  runtime::EngineConfig config;
  config.threads = 1;
  config.max_batch = 1;
  config.queue_capacity = 4;
  runtime::InferenceEngine engine(*net_, config);
  runtime::SubmitOptions options;
  options.deadline_ms = 60'000;
  EXPECT_NO_THROW((void)engine.submit(rgb(), depth(), options).get());
  engine.shutdown(runtime::ShutdownMode::kDrain);
  EXPECT_EQ(engine.stats().requests_timed_out, 0u);
}

}  // namespace
}  // namespace roadfusion::serve
