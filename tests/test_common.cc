/** @file Tests for logging and the thread pool. */

#include <gtest/gtest.h>

#include <atomic>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace sunstone {
namespace {

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(SUNSTONE_PANIC("boom ", 42), "panic: boom 42");
}

TEST(Logging, FatalExitsWithOne)
{
    EXPECT_EXIT(SUNSTONE_FATAL("user error ", "x"),
                ::testing::ExitedWithCode(1), "fatal: user error x");
}

TEST(Logging, AssertPassesAndFails)
{
    SUNSTONE_ASSERT(1 + 1 == 2, "should not fire");
    EXPECT_DEATH(SUNSTONE_ASSERT(false, "ctx ", 7), "assertion failed");
}

TEST(Logging, QuietSuppressesWarnings)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    ::testing::internal::CaptureStderr();
    SUNSTONE_WARN("hidden");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    SUNSTONE_WARN("visible");
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("visible"),
              std::string::npos);
}

/** asInt() is exact for integer literals, accepts other spellings of
 *  an int64 and returns the default for anything else. */
TEST(Json, AsIntReturnsDefaultUnlessAnInt64)
{
    auto asInt = [](const std::string &text) {
        JsonValue v;
        std::string err;
        EXPECT_TRUE(parseJson(text, v, &err)) << text << ": " << err;
        return v.asInt(-7);
    };
    EXPECT_EQ(asInt("42"), 42);
    EXPECT_EQ(asInt("-3"), -3);
    EXPECT_EQ(asInt("9223372036854775807"), INT64_MAX);
    EXPECT_EQ(asInt("-9223372036854775808"), INT64_MIN);
    EXPECT_EQ(asInt("1e3"), 1000);
    EXPECT_EQ(asInt("2.0"), 2);
    EXPECT_EQ(asInt("-0.0"), 0);
    EXPECT_EQ(asInt("-9.223372036854775808e18"), INT64_MIN);

    EXPECT_EQ(asInt("2.5"), -7);
    EXPECT_EQ(asInt("-0.5"), -7);
    EXPECT_EQ(asInt("1e300"), -7);
    EXPECT_EQ(asInt("-1e300"), -7);
    EXPECT_EQ(asInt("9.3e18"), -7);
    EXPECT_EQ(asInt("9223372036854775808"), -7);
    EXPECT_EQ(asInt("\"5\""), -7);
    EXPECT_EQ(asInt("null"), -7);
}

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { counter.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    parallelFor(pool, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialFallback)
{
    ThreadPool pool(1);
    std::vector<int> order;
    parallelFor(pool, 5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WaitIdleOnEmptyPool)
{
    ThreadPool pool(2);
    pool.waitIdle(); // must not hang
    SUCCEED();
}

} // namespace
} // namespace sunstone
