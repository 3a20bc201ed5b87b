#include "sim/procexec.h"

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "stats/sink.h"

// Sanitizers reserve terabytes of virtual address space for shadow
// memory; an RLIMIT_AS cap would kill every child at startup.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UDP_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UDP_UNDER_SANITIZER 1
#endif
#endif
#ifndef UDP_UNDER_SANITIZER
#define UDP_UNDER_SANITIZER 0
#endif

namespace udp {

bool
procUnderSanitizer()
{
    return UDP_UNDER_SANITIZER != 0;
}

namespace {

using Clock = std::chrono::steady_clock;

/** Bytes of an isolated child's stderr kept as JobError::stderrTail. */
constexpr std::size_t kStderrTailBytes = 4096;

// --- pipe protocol ---------------------------------------------------------
//
// The child writes exactly one line to its result pipe: the Report's
// reportToJsonLine() or its failure row (failureToJsonLine), then '\n'.
// The parent treats anything that is not exactly one such line as a
// protocol failure.

/**
 * Ignores SIGPIPE process-wide (idempotent). A peer that dies between
 * our write()s would otherwise raise SIGPIPE and kill the process; with
 * the signal ignored the write fails with EPIPE and is classified
 * ("exit" for a child whose parent died).
 */
void
ignoreSigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
}

bool
writeAll(int fd, const char* data, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

// --- child side ------------------------------------------------------------

void
applyChildLimits(const SweepOptions& opts)
{
    // A crashing child is expected here; don't litter core files.
    struct rlimit core = {0, 0};
    ::setrlimit(RLIMIT_CORE, &core);

#if !UDP_UNDER_SANITIZER
    if (opts.memLimitBytes != 0) {
        struct rlimit rl;
        rl.rlim_cur = static_cast<rlim_t>(opts.memLimitBytes);
        rl.rlim_max = static_cast<rlim_t>(opts.memLimitBytes);
        ::setrlimit(RLIMIT_AS, &rl);
    }
#endif
    if (opts.cpuLimitSec != 0) {
        struct rlimit rl;
        // Soft limit raises SIGXCPU (classified "cpu_limit"); the hard
        // limit is the SIGKILL backstop should the child ignore it.
        rl.rlim_cur = static_cast<rlim_t>(opts.cpuLimitSec);
        rl.rlim_max = static_cast<rlim_t>(opts.cpuLimitSec + 5);
        ::setrlimit(RLIMIT_CPU, &rl);
    }
}

[[noreturn]] void
childRun(const SweepJob& job, int result_fd)
{
    std::string line;
    try {
        Report r;
        JobError e;
        line = runJobInProcess(job, &r, &e)
                   ? reportToJsonLine(r)
                   : failureToJsonLine(job.profile.name, job.label, e);
        line += '\n';
    } catch (...) {
        // Even building the line failed (e.g. bad_alloc while copying a
        // large dump under RLIMIT_AS): report through the exit status.
        _exit(4);
    }
    if (!writeAll(result_fd, line.data(), line.size())) {
        _exit(3);
    }
    _exit(0);
}

// --- parent side -----------------------------------------------------------

std::string
signalNameOf(int sig)
{
    switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    case SIGSYS: return "SIGSYS";
    case SIGTRAP: return "SIGTRAP";
    case SIGPIPE: return "SIGPIPE";
    default: return "SIG" + std::to_string(sig);
    }
}

/** Reads the child's one result line into @p jr; false when @p payload
 *  is not exactly one report line or failure row. */
bool
readResultLine(const std::string& payload, JobResult* jr)
{
    if (payload.empty() || payload.find('\n') != payload.size() - 1) {
        return false;
    }
    const std::string line = payload.substr(0, payload.size() - 1);
    if (reportFromJsonLine(line, &jr->report)) {
        jr->ok = true;
        return true;
    }
    std::string workload;
    std::string config;
    jr->ok = false;
    return failureFromJsonLine(line, &workload, &config, &jr->error);
}

} // namespace

JobResult
runJobIsolated(const SweepJob& job, const SweepOptions& opts)
{
    ignoreSigpipe();
    JobResult jr;
    int res_pipe[2];
    int err_pipe[2];
    if (::pipe(res_pipe) != 0) {
        jr.error.kind = "exception";
        jr.error.message =
            std::string("pipe() failed: ") + std::strerror(errno);
        return jr;
    }
    if (::pipe(err_pipe) != 0) {
        jr.error.kind = "exception";
        jr.error.message =
            std::string("pipe() failed: ") + std::strerror(errno);
        ::close(res_pipe[0]);
        ::close(res_pipe[1]);
        return jr;
    }

    // Inherited stdio buffers would otherwise be double-flushed by the
    // child (it uses _exit, but the fault hooks fprintf to stderr).
    std::fflush(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        jr.error.kind = "exception";
        jr.error.message =
            std::string("fork() failed: ") + std::strerror(errno);
        ::close(res_pipe[0]);
        ::close(res_pipe[1]);
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        return jr;
    }

    if (pid == 0) {
        // Child: redirect stderr into the capture pipe, shield the job
        // from the terminal's SIGINT/SIGTERM (graceful shutdown drains
        // in-flight jobs; the parent's wall deadline stays the backstop),
        // apply rlimits, run, report, _exit.
        ::close(res_pipe[0]);
        ::close(err_pipe[0]);
        ::dup2(err_pipe[1], STDERR_FILENO);
        if (err_pipe[1] != STDERR_FILENO) {
            ::close(err_pipe[1]);
        }
        std::signal(SIGINT, SIG_IGN);
        std::signal(SIGTERM, SIG_IGN);
        // If the parent dies first, writing the result must fail with
        // EPIPE (classified "exit") instead of SIGPIPE killing us with
        // no classification at all.
        ignoreSigpipe();
        applyChildLimits(opts);
        childRun(job, res_pipe[1]); // noreturn
    }

    // Parent: drain both pipes (the child blocks if its stderr pipe
    // fills) while enforcing the wall-clock deadline.
    ::close(res_pipe[1]);
    ::close(err_pipe[1]);

    std::string payload;
    std::string tail;
    bool timed_out = false;
    const bool has_deadline = opts.wallLimitSec > 0.0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               has_deadline ? opts.wallLimitSec : 0.0));

    struct pollfd pfd[2];
    pfd[0] = {res_pipe[0], POLLIN, 0};
    pfd[1] = {err_pipe[0], POLLIN, 0};

    while (pfd[0].fd >= 0 || pfd[1].fd >= 0) {
        int timeout_ms = -1;
        if (has_deadline && !timed_out) {
            auto remain = std::chrono::duration_cast<
                              std::chrono::milliseconds>(deadline -
                                                         Clock::now())
                              .count();
            if (remain <= 0) {
                ::kill(pid, SIGKILL);
                timed_out = true; // pipes will hit EOF as the child dies
            } else {
                timeout_ms = static_cast<int>(remain) + 1;
            }
        }
        int rc = ::poll(pfd, 2, timeout_ms);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (rc == 0) {
            continue; // deadline re-check at the top
        }
        for (int i = 0; i < 2; ++i) {
            if (pfd[i].fd < 0 || pfd[i].revents == 0) {
                continue;
            }
            char buf[4096];
            ssize_t n = ::read(pfd[i].fd, buf, sizeof(buf));
            if (n > 0) {
                std::string& dst = i == 0 ? payload : tail;
                dst.append(buf, static_cast<std::size_t>(n));
                if (i == 1 && tail.size() > kStderrTailBytes) {
                    tail.erase(0, tail.size() - kStderrTailBytes);
                }
            } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
                ::close(pfd[i].fd);
                pfd[i].fd = -1;
            }
        }
    }
    if (pfd[0].fd >= 0) {
        ::close(pfd[0].fd);
    }
    if (pfd[1].fd >= 0) {
        ::close(pfd[1].fd);
    }

    int status = 0;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }

    auto attachDiagnostics = [&](JobError* e) {
        e->stderrTail = tail;
        e->maxRssKb = static_cast<std::uint64_t>(ru.ru_maxrss);
        e->userSec = static_cast<double>(ru.ru_utime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
        e->sysSec = static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    };

    if (timed_out) {
        jr.ok = false;
        jr.error = JobError{};
        jr.error.kind = "timeout";
        jr.error.signal = "SIGKILL";
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "wall-clock limit of %.1fs exceeded; child killed",
                      opts.wallLimitSec);
        jr.error.message = msg;
        attachDiagnostics(&jr.error);
        return jr;
    }

    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        jr.ok = false;
        jr.error = JobError{};
        jr.error.signal = signalNameOf(sig);
        if (sig == SIGXCPU) {
            jr.error.kind = "cpu_limit";
            jr.error.message = "CPU-time limit exceeded (SIGXCPU)";
        } else if (sig == SIGKILL) {
            // Not our wall-deadline kill (handled above): the kernel's
            // OOM killer or the RLIMIT_CPU hard-limit backstop.
            jr.error.kind = "oom_kill";
            jr.error.message =
                "child killed by SIGKILL (kernel OOM killer or hard "
                "resource limit)";
        } else {
            jr.error.kind = "crash";
            jr.error.message = "child terminated by " + jr.error.signal;
        }
        attachDiagnostics(&jr.error);
        return jr;
    }

    if (readResultLine(payload, &jr)) {
        if (!jr.ok) {
            attachDiagnostics(&jr.error);
        }
        return jr;
    }

    jr.ok = false;
    jr.error = JobError{};
    int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (exit_code != 0) {
        jr.error.kind = "exit";
        jr.error.message = "child exited with status " +
                           std::to_string(exit_code) +
                           " without a result line";
    } else {
        jr.error.kind = "protocol";
        jr.error.message = "malformed result line from child (" +
                           std::to_string(payload.size()) + " bytes)";
    }
    attachDiagnostics(&jr.error);
    return jr;
}

} // namespace udp
