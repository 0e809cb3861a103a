#include "obs/snapshot.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"

namespace sunstone {
namespace obs {

SnapshotWriter::SnapshotWriter(std::string path, int interval_ms)
    : path_(std::move(path)), intervalMs_(std::max(10, interval_ms)),
      start_(std::chrono::steady_clock::now())
{
}

SnapshotWriter::~SnapshotWriter() { stop(); }

void
SnapshotWriter::setExtraProvider(std::function<std::string()> provider)
{
    extra_ = std::move(provider);
}

bool
SnapshotWriter::start()
{
    std::unique_lock<std::mutex> lk(mtx_);
    if (running_)
        return true;
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        return false;
    running_ = true;
    start_ = std::chrono::steady_clock::now();
    lk.unlock();
    writeNow(); // even a sub-interval run leaves at least one record
    thread_ = std::thread([this] { loop(); });
    return true;
}

void
SnapshotWriter::stop()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        if (!running_)
            return;
        running_ = false;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    writeNow(); // final record reflecting the finished state
    std::lock_guard<std::mutex> lk(mtx_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::string
SnapshotWriter::renderRecord()
{
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    ProgressBoard &board = progressBoard();

    std::string j = "{\"seq\":" +
                    std::to_string(seq_.load(std::memory_order_relaxed));
    j += ",\"elapsed_seconds\":" + jsonDouble(elapsed);
    j += ",\"units\":{\"done\":" + std::to_string(board.unitsDone()) +
         ",\"total\":" + std::to_string(board.unitsTotal()) + "}";
    j += ",\"searches\":[";
    bool first = true;
    for (const auto &s : board.snapshot()) {
        if (!first)
            j += ",";
        first = false;
        j += "{\"label\":\"" + jsonEscape(s->label()) + "\"";
        j += ",\"evaluated\":" + std::to_string(s->evaluated());
        j += ",\"found\":" + std::string(s->found() ? "true" : "false");
        const double best = s->bestMetric();
        j += ",\"best_metric\":" +
             (std::isfinite(best) ? jsonDouble(best)
                                  : std::string("null"));
        j += ",\"improvements\":" + std::to_string(s->improvements());
        j += ",\"elapsed_seconds\":" + jsonDouble(s->elapsedSeconds());
        j += ",\"done\":" + std::string(s->done() ? "true" : "false");
        j += ",\"stop_reason\":\"" + jsonEscape(s->stopReason()) + "\"";
        j += "}";
    }
    j += "]";
    j += ",\"registry\":" + metrics().toJson();
    if (extra_)
        j += ",\"extra\":" + extra_();
    j += "}";
    return j;
}

bool
SnapshotWriter::writeNow()
{
    std::lock_guard<std::mutex> wlk(writeMtx_);
    int fd;
    {
        std::lock_guard<std::mutex> lk(mtx_);
        fd = fd_;
    }
    if (fd < 0)
        return false;
    std::string line = renderRecord();
    line += "\n";
    seq_.fetch_add(1, std::memory_order_relaxed);
    // One write(2) per record on an O_APPEND descriptor: a kill can
    // tear at most the final line; complete lines are complete records.
    const char *p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return true;
}

void
SnapshotWriter::loop()
{
    std::unique_lock<std::mutex> lk(mtx_);
    while (running_) {
        if (cv_.wait_for(lk, std::chrono::milliseconds(intervalMs_),
                         [this] { return !running_; }))
            break;
        lk.unlock();
        writeNow();
        lk.lock();
    }
}

} // namespace obs
} // namespace sunstone
