#include "search/stop_policy.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/parse.hh"

namespace sunstone {

const char *
stopReasonName(StopReason r)
{
    switch (r) {
    case StopReason::None: return "none";
    case StopReason::Exhausted: return "exhausted";
    case StopReason::Deadline: return "deadline";
    case StopReason::MaxEvals: return "max-evals";
    case StopReason::Plateau: return "plateau";
    case StopReason::InvalidStreak: return "invalid-streak";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::Unsupported: return "unsupported";
    }
    return "unknown";
}

bool
StopPolicy::unbounded() const
{
    // A negative deadline bounds the search (it is already expired).
    return deadlineSeconds == 0 && maxEvals <= 0 && plateau <= 0 &&
           maxConsecutiveInvalid <= 0 && cancel == nullptr;
}

StopPolicy
StopPolicy::withDefaults(const StopPolicy &defaults) const
{
    StopPolicy p = *this;
    if (p.deadlineSeconds == 0)
        p.deadlineSeconds = defaults.deadlineSeconds;
    if (p.maxEvals <= 0)
        p.maxEvals = defaults.maxEvals;
    if (p.plateau <= 0)
        p.plateau = defaults.plateau;
    if (p.maxConsecutiveInvalid <= 0)
        p.maxConsecutiveInvalid = defaults.maxConsecutiveInvalid;
    if (!p.cancel)
        p.cancel = defaults.cancel;
    return p;
}

StopPolicy
StopPolicy::combine(const StopPolicy &a, const StopPolicy &b)
{
    const auto tighter = [](auto x, auto y) {
        if (x <= 0)
            return y;
        if (y <= 0)
            return x;
        return std::min(x, y);
    };
    // For the deadline only 0 means "unset"; negative values are valid
    // (already expired) and are the tightest bound of all.
    const auto tighterDeadline = [](double x, double y) {
        if (x == 0)
            return y;
        if (y == 0)
            return x;
        return std::min(x, y);
    };
    StopPolicy p;
    p.deadlineSeconds = tighterDeadline(a.deadlineSeconds,
                                        b.deadlineSeconds);
    p.maxEvals = tighter(a.maxEvals, b.maxEvals);
    p.plateau = tighter(a.plateau, b.plateau);
    p.maxConsecutiveInvalid =
        tighter(a.maxConsecutiveInvalid, b.maxConsecutiveInvalid);
    p.cancel = a.cancel ? a.cancel : b.cancel;
    return p;
}

bool
parseStopPolicyText(const std::string &text, StopPolicy &out,
                    std::optional<std::uint64_t> *seed, std::string *err)
{
    const auto failLine = [&](int lineno, const std::string &msg) {
        if (err) {
            std::ostringstream os;
            os << "line " << lineno << ": " << msg;
            *err = os.str();
        }
        return false;
    };

    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (auto h = line.find('#'); h != std::string::npos)
            line.erase(h);
        std::string key, value, extra;
        std::istringstream ls(line);
        if (!(ls >> key))
            continue; // blank / comment-only line
        if (!(ls >> value))
            return failLine(lineno, "missing value for '" + key + "'");
        if (value == "=" && !(ls >> value))
            return failLine(lineno, "missing value for '" + key + "'");
        if (ls >> extra)
            return failLine(lineno, "trailing content '" + extra + "'");

        std::int64_t n = 0;
        if (!tryParseInt64(value, n))
            return failLine(lineno, "'" + value + "' is not an integer");

        if (key == "deadline_ms") {
            out.deadlineSeconds = static_cast<double>(n) / 1000.0;
        } else if (key == "deadline_s") {
            out.deadlineSeconds = static_cast<double>(n);
        } else if (key == "max_evals") {
            out.maxEvals = n;
        } else if (key == "plateau" || key == "victory") {
            out.plateau = n;
        } else if (key == "max_consecutive_invalid") {
            out.maxConsecutiveInvalid = n;
        } else if (key == "seed") {
            if (seed)
                *seed = static_cast<std::uint64_t>(n);
        } else {
            return failLine(lineno, "unknown key '" + key + "'");
        }
    }
    return true;
}

bool
loadStopPolicyFile(const std::string &path, StopPolicy &out,
                   std::optional<std::uint64_t> *seed, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseStopPolicyText(buf.str(), out, seed, err);
}

} // namespace sunstone
