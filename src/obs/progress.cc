#include "obs/progress.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sunstone {
namespace obs {

void
ProgressBoard::retireFinished()
{
    std::size_t finished = 0;
    for (const auto &e : entries_)
        finished += e->done() ? 1 : 0;
    if (finished <= kMaxFinished)
        return;
    // Oldest first. A search makes no evaluation after finish(), so the
    // folded count is final.
    std::size_t excess = finished - kMaxFinished;
    std::erase_if(entries_, [&](const auto &e) {
        if (excess == 0 || !e->done())
            return false;
        --excess;
        retiredEvaluated_ += e->evaluated();
        return true;
    });
}

std::shared_ptr<SearchStatus>
ProgressBoard::open(const std::string &label, std::int64_t max_evals,
                    double deadline_seconds, std::int64_t plateau_bound)
{
    auto entry = std::make_shared<SearchStatus>(label, max_evals,
                                                deadline_seconds,
                                                plateau_bound);
    std::lock_guard<std::mutex> lk(mtx_);
    retireFinished();
    entries_.push_back(entry);
    return entry;
}

std::vector<std::shared_ptr<const SearchStatus>>
ProgressBoard::snapshot()
{
    std::lock_guard<std::mutex> lk(mtx_);
    retireFinished();
    return {entries_.begin(), entries_.end()};
}

std::int64_t
ProgressBoard::totalEvaluated() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    std::int64_t n = retiredEvaluated_;
    for (const auto &e : entries_)
        n += e->evaluated();
    return n;
}

void
ProgressBoard::addUnits(std::int64_t n)
{
    unitsTotal_.fetch_add(n, std::memory_order_relaxed);
}

void
ProgressBoard::noteUnitDone()
{
    unitsDone_.fetch_add(1, std::memory_order_relaxed);
}

void
ProgressBoard::resetForTests()
{
    std::lock_guard<std::mutex> lk(mtx_);
    entries_.clear();
    retiredEvaluated_ = 0;
    unitsTotal_.store(0, std::memory_order_relaxed);
    unitsDone_.store(0, std::memory_order_relaxed);
}

ProgressBoard &
progressBoard()
{
    static ProgressBoard b;
    return b;
}

EtaEstimate
computeEta(std::int64_t evaluated, std::int64_t max_evals,
           double elapsed_seconds, double deadline_seconds,
           std::int64_t plateau_length, std::int64_t plateau_bound,
           double evals_per_second)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double deadline = kInf, evals = kInf, plateau = kInf;
    if (deadline_seconds > 0)
        deadline = std::max(0.0, deadline_seconds - elapsed_seconds);
    if (max_evals > 0) {
        if (evaluated >= max_evals)
            evals = 0;
        else if (evals_per_second > 0)
            evals = static_cast<double>(max_evals - evaluated) /
                    evals_per_second;
    }
    if (plateau_bound > 0) {
        if (plateau_length >= plateau_bound)
            plateau = 0;
        else if (evals_per_second > 0)
            plateau = static_cast<double>(plateau_bound - plateau_length) /
                      evals_per_second;
    }
    // Ties break deadline > max-evals > plateau: the wall-clock bound is
    // exact where the eval-denominated ones extrapolate from the rate.
    EtaEstimate e;
    if (deadline <= evals && deadline <= plateau) {
        e.seconds = deadline;
        e.bound = deadline == kInf ? "" : "deadline";
    } else if (evals <= plateau) {
        e.seconds = evals;
        e.bound = "max-evals";
    } else {
        e.seconds = plateau;
        e.bound = "plateau";
    }
    return e;
}

namespace {

/** "1234" -> "1.2k", "5678901" -> "5.7M": compact counts for one line. */
std::string
compactCount(double v)
{
    char buf[32];
    if (v >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.1fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
    else if (v >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

std::string
compactSeconds(double s)
{
    char buf[32];
    if (!std::isfinite(s))
        return "-";
    if (s >= 3600)
        std::snprintf(buf, sizeof(buf), "%.1fh", s / 3600);
    else if (s >= 60)
        std::snprintf(buf, sizeof(buf), "%.1fm", s / 60);
    else
        std::snprintf(buf, sizeof(buf), "%.0fs", s);
    return buf;
}

} // anonymous namespace

ProgressReporter::ProgressReporter(int interval_ms)
    : intervalMs_(std::max(20, interval_ms)),
      lastTime_(std::chrono::steady_clock::now())
{
}

ProgressReporter::~ProgressReporter() { stop(); }

void
ProgressReporter::start()
{
    std::lock_guard<std::mutex> lk(mtx_);
    if (running_.load(std::memory_order_relaxed))
        return;
    running_.store(true, std::memory_order_relaxed);
    lastEvals_ = progressBoard().totalEvaluated();
    lastTime_ = std::chrono::steady_clock::now();
    thread_ = std::thread([this] { loop(); });
}

void
ProgressReporter::stop()
{
    std::lock_guard<std::mutex> lk(mtx_);
    if (!running_.load(std::memory_order_relaxed))
        return;
    running_.store(false, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
    // Final render, then release the line.
    const std::string line = renderLine();
    std::fprintf(stderr, "\r%-*s\n", static_cast<int>(lastLineLen_),
                 line.c_str());
    std::fflush(stderr);
}

std::string
ProgressReporter::renderLine()
{
    ProgressBoard &board = progressBoard();
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        std::chrono::duration<double>(now - lastTime_).count();
    const std::int64_t evals = board.totalEvaluated();
    if (dt > 1e-3) {
        const double inst =
            static_cast<double>(evals - lastEvals_) / dt;
        // EWMA so the rate does not jitter at small redraw intervals.
        smoothedRate_ = smoothedRate_ > 0
                            ? 0.7 * smoothedRate_ + 0.3 * inst
                            : inst;
        lastEvals_ = evals;
        lastTime_ = now;
    }

    // The most recently opened not-yet-done search carries the live
    // incumbent and the ETA; when all are done, fall back to the last.
    const auto entries = board.snapshot();
    const SearchStatus *active = nullptr;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        if (!(*it)->done()) {
            active = it->get();
            break;
        }
    if (!active && !entries.empty())
        active = entries.back().get();

    std::string line = "[sunstone]";
    if (board.unitsTotal() > 0)
        line += " units " + std::to_string(board.unitsDone()) + "/" +
                std::to_string(board.unitsTotal());
    line += " evals " + compactCount(static_cast<double>(evals));
    line += " (" + compactCount(smoothedRate_) + "/s)";
    if (active) {
        if (active->found()) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), " best %.4g",
                          active->bestMetric());
            line += buf;
        }
        const EtaEstimate eta = computeEta(
            active->evaluated(), active->maxEvals(),
            active->elapsedSeconds(), active->deadlineSeconds(),
            active->plateauLength(), active->plateauBound(),
            smoothedRate_);
        if (eta.bound[0] != '\0')
            line += " eta " + compactSeconds(eta.seconds) + " (" +
                    eta.bound + ")";
        if (!active->done())
            line += " | " + active->label();
    }
    return line;
}

void
ProgressReporter::loop()
{
    while (running_.load(std::memory_order_relaxed)) {
        const std::string line = renderLine();
        // Overwrite in place; pad so a shrinking line leaves no tail.
        std::fprintf(stderr, "\r%-*s", static_cast<int>(lastLineLen_),
                     line.c_str());
        std::fflush(stderr);
        lastLineLen_ = std::max(lastLineLen_, line.size());
        std::this_thread::sleep_for(
            std::chrono::milliseconds(intervalMs_));
    }
}

} // namespace obs
} // namespace sunstone
