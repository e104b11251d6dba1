/**
 * @file
 * bench_cluster forks its ramp_served backends; none may outlive the
 * bench, however it ends. The hardest case is a SIGKILL, which runs
 * no handler at all: the bench is started, killed as soon as its
 * backends answer, and every process it forked must then be gone.
 * The path to the bench arrives as a compile definition
 * (RAMP_BENCH_CLUSTER_BIN), the pattern daemon_smoke_test uses.
 */

#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace {

/** True once the bench's stderr carries its "backends ready" line,
 *  printed after every backend answered a stats round trip. */
bool
backendsReady(const std::string &log)
{
    std::ifstream in(log);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("bench_cluster: backends ready", 0) == 0)
            return true;
    return false;
}

TEST(ClusterTeardown, SigkilledBenchTakesItsBackends)
{
    // Orphans re-parent to the nearest subreaper: with this process
    // as one, every backend the bench forked becomes our child once
    // the bench is gone, so "none left running" is an ECHILD from
    // waitpid rather than a guess over the process table.
    ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
    const std::string dir = "cluster_teardown";
    std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());

    const pid_t bench = ::fork();
    if (bench == 0) {
        // Its own process group, so a failing run can be cleaned up
        // with one kill of the group.
        if (::setpgid(0, 0) != 0 || ::chdir(dir.c_str()) != 0)
            std::_Exit(127);
        std::freopen("bench.out", "w", stdout);
        std::freopen("bench.err", "w", stderr);
        ::execl(RAMP_BENCH_CLUSTER_BIN, RAMP_BENCH_CLUSTER_BIN,
                "--connections", "4", "--requests", "40",
                static_cast<char *>(nullptr));
        std::_Exit(127);
    }
    ASSERT_GT(bench, 0);

    bool ready = false;
    const auto ready_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (!ready && std::chrono::steady_clock::now() < ready_deadline &&
           ::waitpid(bench, nullptr, WNOHANG) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ready = backendsReady(dir + "/bench.err");
    }
    if (!ready)
        ::kill(-bench, SIGKILL);
    ASSERT_TRUE(ready) << "bench_cluster never reported ready "
                          "backends; see "
                       << dir << "/bench.err";

    ASSERT_EQ(::kill(bench, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(bench, &status, 0), bench);
    // A bench that finished before the kill would prove nothing.
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "bench_cluster ended before the SIGKILL";

    // Reap everything that re-parented to us. A backend that dies
    // with the bench is reaped within milliseconds; 10 s is slack for
    // a loaded machine, not an expected wait.
    bool all_gone = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!all_gone && std::chrono::steady_clock::now() < deadline) {
        const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
        if (reaped < 0 && errno == ECHILD)
            all_gone = true;
        else if (reaped == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    if (!all_gone) {
        // Do not leave the leak behind for the next test.
        ::kill(-bench, SIGKILL);
        while (::waitpid(-1, nullptr, 0) > 0) {
        }
    }
    EXPECT_TRUE(all_gone)
        << "a backend outlived the SIGKILLed bench_cluster";
}

} // namespace
