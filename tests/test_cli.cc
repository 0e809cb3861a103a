/** @file
 * End-to-end tests of the `sunstone` CLI binary: every subcommand is
 * exercised through a real process, including the save/eval round trip.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace sunstone {
namespace {

struct CliResult
{
    int exitCode = -1;
    std::string output;
};

/**
 * Runs the CLI with the given arguments, capturing stdout+stderr, or
 * only stderr when `stderr_only` is set.
 */
CliResult
runCli(const std::string &args, bool stderr_only = false)
{
    const std::string cmd =
        std::string(SUNSTONE_BIN_DIR) + "/tools/sunstone " + args +
        (stderr_only ? " 2>&1 >/dev/null" : " 2>&1");
    CliResult res;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return res;
    std::array<char, 4096> buf;
    while (fgets(buf.data(), buf.size(), pipe))
        res.output += buf.data();
    const int status = pclose(pipe);
    res.exitCode = WEXITSTATUS(status);
    return res;
}

TEST(Cli, DescribePrintsReuseTable)
{
    auto r = runCli("describe --einsum \"out[i,j] = A[i,k] * B[k,j]\" "
                    "--dims i=8,j=8,k=8");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("reused by"), std::string::npos);
    EXPECT_NE(r.output.find("out"), std::string::npos);
}

TEST(Cli, MapEvalRoundTrip)
{
    const std::string dir = ::testing::TempDir();
    auto map = runCli("map --conv n=1,k=8,c=8,p=8,q=8,r=3,s=3 "
                      "--save-mapping " + dir + "/cli_map.txt "
                      "--save-workload " + dir + "/cli_wl.txt");
    ASSERT_EQ(map.exitCode, 0) << map.output;
    EXPECT_NE(map.output.find("EDP"), std::string::npos);

    auto eval = runCli("eval --workload-file " + dir +
                       "/cli_wl.txt --mapping " + dir + "/cli_map.txt");
    ASSERT_EQ(eval.exitCode, 0) << eval.output;
    // The evaluated EDP line must appear in both outputs identically.
    const auto pos = eval.output.find("EDP");
    ASSERT_NE(pos, std::string::npos);
    const std::string edp_line =
        eval.output.substr(pos, eval.output.find('\n', pos) - pos);
    EXPECT_NE(map.output.find(edp_line), std::string::npos)
        << "map: " << map.output << "\neval: " << eval.output;
}

TEST(Cli, OptionValuesMayBeNegativeNumbers)
{
    // "--budget -0.5" used to be parsed as two options because the value
    // starts with '-'. A negative budget simply times the search out
    // instantly; the parser must not reject it.
    auto r = runCli("map --conv n=1,k=4,c=4,p=4,q=4,r=1,s=1 "
                    "--mapper timeloop --budget -0.5");
    EXPECT_EQ(r.output.find("expected --option"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("no valid mapping found"), std::string::npos)
        << r.output;
}

/** Expects a run to die with the shared clean usage error: exit code 1,
 *  a "fatal:" banner naming the flag, and no uncaught-exception noise
 *  (the historical std::stoi path aborted with "terminate called"). */
void
expectUsageError(const std::string &args, const std::string &flag)
{
    auto r = runCli(args);
    EXPECT_EQ(r.exitCode, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("fatal:"), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_EQ(r.output.find("terminate called"), std::string::npos)
        << args << "\n" << r.output;
}

TEST(Cli, NumericFlagMatrixRejectsJunkCleanly)
{
    const std::string conv = "map --conv n=1,k=4,c=4,p=4,q=4,r=1,s=1 ";
    const std::string net = "map --net tcl --arch conventional ";

    // Strictly positive integer flags: zero, negative, garbage, trailing
    // garbage, and overflow must all die with the same usage error, in
    // both map modes where the flag applies.
    const char *kBad[] = {"0", "-3", "abc", "12x",
                          "99999999999999999999999"};
    for (const std::string v : kBad) {
        expectUsageError(conv + "--threads " + v, "--threads");
        expectUsageError(conv + "--beam " + v, "--beam");
        expectUsageError(conv + "--max-evals " + v, "--max-evals");
        expectUsageError(conv + "--plateau " + v, "--plateau");
        expectUsageError(net + "--beam " + v, "--beam");
    }
    // Net-only sizing flags (smaller sample: same shared validator).
    for (const std::string v : {"0", "abc"}) {
        expectUsageError(net + "--batch " + v, "--batch");
        expectUsageError(net + "--seq " + v, "--seq");
        expectUsageError(net + "--threads " + v, "--threads");
    }
    // Bounded flags reject values past their inclusive cap.
    expectUsageError(conv + "--threads 4097", "--threads");

    // --snapshot-interval-ms is only parsed alongside --snapshot-json.
    const std::string snap =
        conv + "--snapshot-json " + ::testing::TempDir() + "/s.json ";
    for (const std::string v : {"0", "-5", "abc"})
        expectUsageError(snap + "--snapshot-interval-ms " + v,
                         "--snapshot-interval-ms");

    // --seed allows zero but not negatives, garbage, or overflow.
    for (const std::string v :
         {"-1", "abc", "99999999999999999999999"})
        expectUsageError(conv + "--seed " + v, "--seed");

    // Finite-double flags (negatives are legal — see
    // OptionValuesMayBeNegativeNumbers): junk and non-finite die.
    for (const std::string v : {"abc", "1.5x", "inf", "nan"}) {
        expectUsageError(conv + "--deadline-ms " + v, "--deadline-ms");
        expectUsageError(conv + "--mapper timeloop --budget " + v,
                         "--budget");
        expectUsageError(net + "--deadline-ms " + v, "--deadline-ms");
    }
}

/** Expects `args` to fail before any work, naming `flag` on stderr. */
void
expectUnknownFlag(const std::string &args, const std::string &flag)
{
    auto r = runCli(args, /*stderr_only=*/true);
    EXPECT_NE(r.exitCode, 0) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown option " + flag), std::string::npos)
        << args << "\n" << r.output;
}

TEST(Cli, RejectsMisspelledFlag)
{
    // A misspelled bound must fail, not run the search unbounded.
    expectUnknownFlag("map --net tcl --fuse off --max-eval 5",
                      "--max-eval");
    expectUnknownFlag("map --conv n=1,k=4,c=4,p=4,q=4,r=1,s=1 "
                      "--max-eval 5",
                      "--max-eval");
}

TEST(Cli, RejectsRetiredSurrogateFlag)
{
    // The surrogate ranker's flags went with it; a script that still
    // passes them must fail instead of silently running unranked.
    const std::string flag = "--" + std::string("surrogate");
    expectUnknownFlag("map --net tcl --fuse off " + flag + " on", flag);
    expectUnknownFlag("map --conv n=1,k=4,c=4,p=4,q=4,r=1,s=1 " + flag +
                          "-prune 0.5",
                      flag + "-prune");
}

TEST(Cli, FlagsAreCheckedPerSubcommand)
{
    // A flag another subcommand reads is still unknown here.
    expectUnknownFlag("check --trials 1 --max-evals 5", "--max-evals");
    expectUnknownFlag("arch --arch eyeriss --conv n=1", "--conv");
    // Retired commands and flags: `bench` is no longer a subcommand,
    // and `report` no longer reads its artifacts.
    auto retired = runCli("bench");
    EXPECT_EQ(retired.exitCode, 2) << retired.output;
    EXPECT_NE(retired.output.find("usage: sunstone"), std::string::npos)
        << retired.output;
    expectUnknownFlag("report --bench-json x", "--bench-json");
    // A mode-conditional flag counts as known: --budget is read only
    // for timeloop, and other mappers ignore it.
    auto r = runCli("map --conv n=1,k=4,c=4,p=4,q=4,r=1,s=1 "
                    "--budget 1");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(Cli, MapNetSchedulesWholeNetworkWithStatsJson)
{
    const std::string dir = ::testing::TempDir();
    const std::string json_path = dir + "/net_stats.json";
    auto r = runCli("map --net tcl --arch conventional --beam 4 "
                    "--stats-json " + json_path);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("unique searched"), std::string::npos);
    EXPECT_NE(r.output.find("engine: "), std::string::npos);

    std::string json;
    if (FILE *f = fopen(json_path.c_str(), "r")) {
        std::array<char, 4096> buf;
        while (fgets(buf.data(), buf.size(), f))
            json += buf.data();
        fclose(f);
    }
    EXPECT_NE(json.find("\"totalEdp\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"layersUnique\""), std::string::npos) << json;
}

/** Removes the named field from a parsed JSON object, if present. */
void
dropField(JsonValue &obj, const std::string &name)
{
    std::erase_if(obj.fields,
                  [&](const auto &f) { return f.first == name; });
}

/** @return the named field of a parsed JSON object, or nullptr. */
JsonValue *
fieldOf(JsonValue &obj, const std::string &name)
{
    return const_cast<JsonValue *>(obj.find(name));
}

/**
 * Reads a --stats-json file and projects its network result onto the
 * deterministic part: wall-clock dropped (the top level `seconds`, every
 * layer's `seconds`, every fusion group's `searchSeconds`). Numbers keep their source text, so equal
 * projections mean bit-identical values.
 */
std::string
goldenProjection(const std::string &path)
{
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    JsonValue doc;
    std::string err;
    if (!parseJson(text, doc, &err))
        return "unparsable " + path + ": " + err;
    JsonValue *r = fieldOf(doc, "result");
    if (!r)
        return "no result in " + path;
    dropField(*r, "seconds");
    if (JsonValue *layers = fieldOf(*r, "layers"))
        for (JsonValue &l : layers->items)
            dropField(l, "seconds");
    if (JsonValue *fusion = fieldOf(*r, "fusion"))
        if (JsonValue *groups = fieldOf(*fusion, "groups"))
            for (JsonValue &gr : groups->items)
                dropField(gr, "searchSeconds");
    return r->dump();
}

/**
 * Runs `map <args>` and expects its --stats-json result to match
 * tests/golden/<golden>.json under goldenProjection().
 */
void
expectMatchesGolden(const std::string &golden, const std::string &args)
{
    const std::string out = ::testing::TempDir() + "/" + golden + ".json";
    std::remove(out.c_str());
    auto r = runCli("map " + args + " --stats-json " + out);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_EQ(goldenProjection(out),
              goldenProjection(std::string(SUNSTONE_SOURCE_DIR) +
                               "/tests/golden/" + golden + ".json"))
        << "map " << args << " diverged from tests/golden/" << golden
        << ".json";
}

TEST(CliGolden, TclFuseOffMatchesGolden)
{
    expectMatchesGolden("net_tcl_fuse_off", "--net tcl --fuse off");
}

TEST(CliGolden, AttentionFuseGreedyMatchesGolden)
{
    expectMatchesGolden("net_attention_fuse_greedy",
                        "--net attention --seq 64 --fuse greedy --seed 7 "
                        "--max-evals 2000");
}

TEST(CliGolden, Resnet18FuseGreedyMatchesGolden)
{
    // Greedy fusion finds no fusable chain in ResNet-18, so every group
    // is a singleton. Most searches end at the eval budget, and the core
    // search's max-evals cut is exact only single-threaded.
    expectMatchesGolden("net_resnet18_fuse_greedy",
                        "--net resnet18 --arch simba --fuse greedy --seed 7 "
                        "--max-evals 2000 --threads 1");
}

TEST(Cli, ArchDumpRoundTripsThroughFile)
{
    const std::string dir = ::testing::TempDir();
    auto dump = runCli("arch --arch eyeriss --save " + dir + "/e.arch");
    ASSERT_EQ(dump.exitCode, 0) << dump.output;
    auto map = runCli("map --conv n=1,k=8,c=8,p=8,q=8,r=3,s=3 "
                      "--arch-file " + dir + "/e.arch");
    EXPECT_EQ(map.exitCode, 0) << map.output;
    EXPECT_NE(map.output.find("GLB"), std::string::npos);
}

TEST(Cli, BaselineMapperSelectable)
{
    auto r = runCli("map --conv n=1,k=8,c=8,p=8,q=8,r=3,s=3 "
                    "--mapper cosa");
    // CoSA may or may not find a valid mapping here; either way the CLI
    // must terminate cleanly with a meaningful message.
    EXPECT_TRUE(r.exitCode == 0 || r.exitCode == 1) << r.output;
    EXPECT_FALSE(r.output.empty());
}

TEST(Cli, CheckCleanRunAgreesAndIsDeterministic)
{
    auto a = runCli("check --trials 25 --seed 5");
    EXPECT_EQ(a.exitCode, 0) << a.output;
    EXPECT_NE(a.output.find("model and oracle agree"), std::string::npos);

    // Same seed => bit-identical output, so CI failures replay locally.
    auto b = runCli("check --trials 25 --seed 5");
    EXPECT_EQ(b.exitCode, 0);
    EXPECT_EQ(a.output, b.output);
}

TEST(Cli, CheckCatchesInjectedFaultAndWritesRepro)
{
    const std::string prefix = ::testing::TempDir() + "/check_repro";
    auto r = runCli("check --trials 5 --seed 1 "
                    "--inject-fault top-level-reads --repro-prefix " +
                    prefix);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("mismatch"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("minimized mapping"), std::string::npos);
    // The minimized reproducer collapses every dimension to 1.
    EXPECT_NE(r.output.find("dims k=1,c=1,p=1,r=1"), std::string::npos)
        << r.output;
    for (const char *ext : {".workload", ".arch", ".mapping"}) {
        std::ifstream f(prefix + ext);
        EXPECT_TRUE(f.good()) << prefix << ext;
    }
}

TEST(Cli, ServeAnswersNdjsonRequestsAndDedups)
{
    const std::string dir = ::testing::TempDir();
    const std::string reqs = dir + "/serve_reqs.ndjson";
    {
        std::ofstream f(reqs);
        // Two identical requests (the second must be deduped), one
        // malformed line (the server must answer and keep going), and a
        // health scrape.
        f << "{\"id\": \"a\", \"kind\": \"map\", \"workload\": "
             "{\"conv\": \"n=1,k=8,c=8,p=8,q=8,r=3,s=3\"}, "
             "\"stop\": {\"seed\": 3, \"max_evals\": 600}}\n";
        f << "{\"id\": \"b\", \"kind\": \"map\", \"workload\": "
             "{\"conv\": \"n=1,k=8,c=8,p=8,q=8,r=3,s=3\"}, "
             "\"stop\": {\"seed\": 3, \"max_evals\": 600}}\n";
        f << "this is not json\n";
        f << "{\"id\": \"h\", \"kind\": \"health\"}\n";
    }
    auto r = runCli("serve --metrics-json " + dir +
                    "/serve_metrics.json < " + reqs);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("\"id\": \"a\""), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"id\": \"b\""), std::string::npos);
    // The dedup marker on the repeat.
    EXPECT_NE(r.output.find("\"cached\": true"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("bad request"), std::string::npos);
    EXPECT_NE(r.output.find("\"health\""), std::string::npos);
    // EOF shuts the session down cleanly and flushes the metrics doc.
    std::ifstream metrics(dir + "/serve_metrics.json");
    ASSERT_TRUE(metrics.good());
    std::string doc((std::istreambuf_iterator<char>(metrics)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"executed\": 3"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"deduped\": 1"), std::string::npos) << doc;
}

TEST(Cli, ServeRejectsOverlongLineAndKeepsServing)
{
    const std::string dir = ::testing::TempDir();
    const std::string reqs = dir + "/serve_long.ndjson";
    {
        // A 4 MiB line (4x the cap) that only ends after all of it has
        // arrived, then a valid request.
        std::ofstream f(reqs);
        f << std::string(std::size_t(4) << 20, 'x') << "\n";
        f << "{\"id\": \"after\", \"kind\": \"map\", \"workload\": "
             "{\"conv\": \"n=1,k=4,c=4,p=4,q=4,r=1,s=1\"}, "
             "\"stop\": {\"seed\": 1, \"max_evals\": 200}}\n";
    }
    auto r = runCli("serve < " + reqs);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    // Response lines only: runCli also captures the stderr banner.
    std::vector<std::string> lines;
    std::istringstream is(r.output);
    for (std::string line; std::getline(is, line);)
        if (!line.empty() && line[0] == '{')
            lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u) << r.output.substr(0, 2000);
    EXPECT_NE(lines[0].find("\"ok\": false"), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("line longer than"), std::string::npos)
        << lines[0];
    EXPECT_NE(lines[1].find("\"id\": \"after\""), std::string::npos)
        << lines[1];
    EXPECT_NE(lines[1].find("\"ok\": true"), std::string::npos) << lines[1];
}

TEST(Cli, ServeShutsDownCleanlyOnSigterm)
{
    const std::string dir = ::testing::TempDir();
    const std::string script = dir + "/serve_term.sh";
    {
        std::ofstream f(script);
        // Hold stdin open so the server is idle-waiting, then SIGTERM
        // it: the exit must be clean (code 0) with metrics flushed.
        // A fifo (not a `sleep N |` pipeline) keeps stdin open without
        // leaving a long-lived writer the shell would wait on.
        f << "fifo=" << dir << "/serve_term_fifo\n"
          << "rm -f $fifo && mkfifo $fifo\n"
          << SUNSTONE_BIN_DIR << "/tools/sunstone serve --metrics-json "
          << dir << "/serve_term_metrics.json < $fifo >/dev/null 2>&1 &\n"
          << "srv=$!\n"
          << "exec 3>$fifo\n"
          << "sleep 1\n"
          << "kill -TERM $srv\n"
          << "wait $srv\n"
          << "echo served_exit=$?\n"
          << "exec 3>&-\n";
    }
    CliResult res;
    FILE *pipe = popen(("sh " + script).c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::array<char, 4096> buf;
    while (fgets(buf.data(), buf.size(), pipe))
        res.output += buf.data();
    res.exitCode = WEXITSTATUS(pclose(pipe));
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_NE(res.output.find("served_exit=0"), std::string::npos)
        << res.output;
    std::ifstream metrics(dir + "/serve_term_metrics.json");
    EXPECT_TRUE(metrics.good());
}

TEST(Cli, UnknownCommandFails)
{
    auto r = runCli("frobnicate");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("usage"), std::string::npos);
}

TEST(Cli, MissingWorkloadIsFatal)
{
    auto r = runCli("map");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("specify a workload"), std::string::npos);
}

} // namespace
} // namespace sunstone
