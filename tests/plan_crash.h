/**
 * @file
 * Test helper: crash a piece of code through the fault plan, as every
 * drill does, inside a gtest death test.
 */

#ifndef TREEVQA_TESTS_PLAN_CRASH_H
#define TREEVQA_TESTS_PLAN_CRASH_H

#include <gtest/gtest.h>

#include <csignal>
#include <functional>

#include "common/fault_injection.h"

namespace treevqa {

/**
 * Run `body` in a death-test child armed with `plan` (a
 * TREEVQA_FAULT_PLAN document) and expect the plan's `crash` entry to
 * SIGKILL it. The child leaves on disk exactly what a real kill
 * leaves; the parent stays disarmed and inspects it. The threadsafe
 * style re-executes the test alone in the child, so everything the
 * test did before this call runs again there first.
 */
inline void
crashThroughPlan(const char *plan, const std::function<void()> &body)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            FaultInjection::instance().arm(plan);
            body();
        },
        ::testing::KilledBySignal(SIGKILL), "");
}

} // namespace treevqa

#endif // TREEVQA_TESTS_PLAN_CRASH_H
