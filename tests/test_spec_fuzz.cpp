// Malformed-spec corpus: every entry is a spec file a user could plausibly
// produce by truncation, typo, copy-paste damage, or plain binary garbage.
// The contract under test is uniform — exp::parse_experiment_spec() must
// reject each one by throwing a std::exception (never crashing, never
// silently accepting), and syntax-level rejections must carry a file:line
// diagnostic so the user can find the damage. Malformed power-trace CSVs
// behind a [trace.<label>] section must also name the CSV file and row, and
// a malformed arrival log its file and line.
#include <gtest/gtest.h>
#include <unistd.h>

#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "energy/power_trace.hpp"
#include "exp/spec_parser.hpp"

namespace {

using namespace imx;

constexpr const char* kOrigin = "fuzz.ini";

/// A scratch file path private to this process: ctest -j runs each test in
/// its own process, and two writing one fixed path race (one truncates the
/// file while the other parses it).
std::string temp_path(const std::string& file) {
    return testing::TempDir() + "imx_fuzz_" + std::to_string(::getpid()) +
           "_" + file;
}

std::string minimal() {
    return "[sweep]\n"
           "name = t\n"
           "[system]\n"
           "label = s\n"
           "kind = ours-policy\n"
           "policy = greedy\n";
}

struct Case {
    const char* name;         ///< which damage this entry models
    std::string text;         ///< the damaged spec
    bool expect_file_line;    ///< diagnostic must contain "fuzz.ini:<line>"
    std::vector<std::string> expect_in_what = {};  ///< further substrings
};

/// A damaged time_s,power_mw file, written to the test temp dir.
struct BadCsv {
    const char* name;
    std::string path;
    std::string row;  ///< "row N" the diagnostic must name
};

std::vector<BadCsv> malformed_power_csvs() {
    const struct {
        const char* name;
        const char* file;
        const char* body;
        const char* row;
    } damages[] = {
        {"NaN power", "nan_power.csv", "0,0.4\n1,nan\n2,0.4\n", "row 3"},
        {"infinite power", "inf_power.csv", "0,0.4\n1,0.4\n2,inf\n", "row 4"},
        {"negative power", "neg_power.csv", "0,-1\n1,0.4\n2,0.4\n", "row 2"},
        {"a single data row", "one_row.csv", "0,0.4\n", "row 2"},
        {"NaN time", "nan_time.csv", "0,0.4\n1,0.4\nnan,0.4\n", "row 4"},
        {"non-numeric power", "abc_power.csv", "0,0.4\n1,0.4\n2,abc\n",
         "row 4"},
        {"row without a power cell", "short_row.csv", "0,0.4\n1,0.4\n2\n",
         "row 4"},
        {"trailing junk after power", "junk_power.csv",
         "0,0.4\n1,0.4xyz\n2,0.4\n", "row 3"},
    };
    std::vector<BadCsv> out;
    for (const auto& damage : damages) {
        const std::string path = temp_path(damage.file);
        std::ofstream(path) << "time_s,power_mw\n" << damage.body;
        out.push_back({damage.name, path, damage.row});
    }
    return out;
}

std::vector<Case> corpus() {
    std::vector<Case> cases;
    const std::string base = minimal();

    // --- Truncated structure ------------------------------------------------
    cases.push_back({"unclosed section header", base + "[recovery.x\n", true});
    cases.push_back({"header cut mid-name", base + "[recov", true});
    cases.push_back({"empty recovery label",
                     base + "[recovery.]\nstrategy = restart\n", true});
    cases.push_back({"recovery section cut before strategy",
                     base + "[recovery.x]\n", true});
    cases.push_back({"file cut mid-key", base + "[recovery.x]\nstrat", true});
    cases.push_back({"sweep cut before name",
                     "[sweep]\n[system]\nlabel = s\nkind = ours-static\n",
                     false});
    cases.push_back({"system cut before label",
                     "[sweep]\nname = t\n[system]\n", false});

    // --- Bad key = value shapes ---------------------------------------------
    cases.push_back({"key without value separator",
                     base + "[recovery.x]\nstrategy restart\n", true});
    cases.push_back({"empty key", base + "[recovery.x]\n= restart\n", true});
    cases.push_back({"value-less strategy",
                     base + "[recovery.x]\nstrategy =\n", true});
    cases.push_back({"keys before any section",
                     "name = t\n" + base, true});
    cases.push_back({"number where a strategy belongs",
                     base + "[recovery.x]\nstrategy = 42\n", true});
    cases.push_back({"list where a scalar belongs",
                     base + "[recovery.x]\nstrategy = checkpoint\n"
                            "checkpoint_mj = 1, 2\n",
                     true});
    cases.push_back({"negative cost",
                     base + "[recovery.x]\nstrategy = checkpoint\n"
                            "restore_mj = -3\n",
                     true});
    cases.push_back({"negative death threshold",
                     base + "[recovery.x]\nstrategy = restart\n"
                            "death_threshold_mj = -0.1\n",
                     true});
    cases.push_back({"unknown recovery key",
                     base + "[recovery.x]\nstrategy = restart\nwrites = 3\n",
                     true});
    cases.push_back({"misspelled granularity",
                     base + "[recovery.x]\nstrategy = checkpoint\n"
                            "granularity = layers\n",
                     true});

    // --- Malformed [arrivals.*] / [patch.queue] -----------------------------
    cases.push_back({"empty arrivals label",
                     base + "[arrivals.]\nsource = uniform\n", true});
    cases.push_back({"arrivals section cut before source",
                     base + "[arrivals.x]\n", true});
    cases.push_back({"unknown arrival source",
                     base + "[arrivals.x]\nsource = martian\n", true});
    cases.push_back({"param of a different source",
                     base + "[arrivals.x]\nsource = poisson\nburst_min = 2\n",
                     true});
    cases.push_back({"non-numeric arrival param",
                     base + "[arrivals.x]\nsource = poisson\n"
                            "rate_scale = fast\n",
                     true});
    cases.push_back({"negative arrival param",
                     base + "[arrivals.x]\nsource = bursty\njitter_s = -5\n",
                     true});
    cases.push_back({"inverted burst bounds",
                     base + "[arrivals.x]\nsource = bursty\nburst_min = 9\n"
                            "burst_max = 3\n",
                     true});
    cases.push_back({"csv arrivals without a path",
                     base + "[arrivals.x]\nsource = csv\n", true});
    cases.push_back({"csv arrivals with a missing file",
                     base + "[arrivals.x]\nsource = csv\n"
                            "path = does-not-exist.csv\n",
                     true});
    const std::string inf_log = temp_path("inf_arrivals.csv");
    std::ofstream(inf_log) << "0.5\ninf\n1.5\n";
    cases.push_back({"infinite arrival time",
                     base + "[arrivals.x]\nsource = csv\npath = " + inf_log +
                         "\n",
                     true,
                     {inf_log, "line 2"}});
    cases.push_back({"negative queue capacity",
                     base + "[patch.queue]\ncapacity = 4, -1\n", true});
    cases.push_back({"fractional queue capacity",
                     base + "[patch.queue]\ncapacity = 2.5\n", true});
    cases.push_back({"non-numeric queue capacity",
                     base + "[patch.queue]\ncapacity = lots\n", true});
    cases.push_back({"queue section without capacities",
                     base + "[patch.queue]\n", true});
    cases.push_back({"unknown queue key",
                     base + "[patch.queue]\nsize = 4\n", true});

    // --- Malformed power-trace CSVs -----------------------------------------
    for (const BadCsv& csv : malformed_power_csvs()) {
        cases.push_back({csv.name,
                         base + "[trace.x]\nsource = csv\npath = " + csv.path +
                             "\n",
                         true,
                         {csv.path, csv.row}});
    }

    // --- Duplicates ---------------------------------------------------------
    cases.push_back({"duplicate recovery labels",
                     base + "[recovery.x]\nstrategy = restart\n"
                            "[recovery.x]\nstrategy = none\n",
                     true});
    cases.push_back({"duplicate key within a recovery section",
                     base + "[recovery.x]\nstrategy = restart\n"
                            "strategy = none\n",
                     true});
    cases.push_back({"duplicate sweep section",
                     base + "[sweep]\nname = again\n", true});
    cases.push_back({"duplicate arrivals labels",
                     base + "[arrivals.x]\nsource = uniform\n"
                            "[arrivals.x]\nsource = poisson\n",
                     true});
    cases.push_back({"duplicate patch.queue section",
                     base + "[patch.queue]\ncapacity = 1\n"
                            "[patch.queue]\ncapacity = 2\n",
                     true});

    // --- Non-UTF8 / binary junk ---------------------------------------------
    cases.push_back({"latin-1 bytes as a line",
                     base + std::string("\xFF\xFE\xBA\xAD\n"), true});
    cases.push_back({"binary junk inside a section",
                     base + "[recovery.x]\n\x01\x02\x03\x04\n", true});
    cases.push_back({"embedded NUL in a key line",
                     base + std::string("[recovery.x]\nstr\0tegy = r\n", 26),
                     true});
    cases.push_back({"high-bit section name with junk value",
                     base + "[recovery.caf\xC3\xA9]\nstrategy = caf\xC3\xA9\n",
                     true});

    return cases;
}

TEST(SpecFuzz, EveryCorpusEntryFailsLoudlyAndNeverCrashes) {
    for (const auto& entry : corpus()) {
        bool threw = false;
        try {
            (void)exp::parse_experiment_spec(entry.text, kOrigin);
        } catch (const std::exception& e) {
            threw = true;
            const std::string what = e.what();
            EXPECT_FALSE(what.empty()) << entry.name;
            if (entry.expect_file_line) {
                EXPECT_NE(what.find("fuzz.ini:"), std::string::npos)
                    << entry.name << ": " << what;
            }
            for (const std::string& part : entry.expect_in_what) {
                EXPECT_NE(what.find(part), std::string::npos)
                    << entry.name << ": " << what;
            }
        }
        EXPECT_TRUE(threw) << entry.name << " was silently accepted";
    }
}

TEST(SpecFuzz, MalformedPowerCsvThrowsInvalidArgumentNamingFileAndRow) {
    for (const BadCsv& csv : malformed_power_csvs()) {
        try {
            (void)energy::PowerTrace::from_csv(csv.path);
            ADD_FAILURE() << csv.name << " was silently accepted";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind(csv.path + ": ", 0), 0u)
                << csv.name << ": " << what;
            EXPECT_NE(what.find(csv.row), std::string::npos)
                << csv.name << ": " << what;
        }
    }
}

TEST(SpecFuzz, SingleCharacterTruncationsOfAValidSpecNeverCrash) {
    // Chop a valid spec (with a recovery axis) at every byte boundary: each
    // prefix must either parse or throw a std::exception — nothing else.
    const std::string full =
        minimal() + "[recovery.nvm]\nstrategy = checkpoint\n"
                    "granularity = exit\ndeath_threshold_mj = 0.3\n";
    int parsed = 0;
    int rejected = 0;
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        try {
            (void)exp::parse_experiment_spec(full.substr(0, cut), kOrigin);
            ++parsed;
        } catch (const std::exception&) {
            ++rejected;
        }
    }
    // The empty prefix and every prefix missing [sweep]/[system] reject; the
    // full text parses. Both outcomes must occur — otherwise the harness is
    // not exercising what it claims to.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

TEST(SpecFuzz, RandomByteCorruptionOfAValidSpecNeverCrashes) {
    // Deterministic xorshift so failures reproduce; overwrite a handful of
    // bytes per round with arbitrary (often non-UTF8) values.
    const std::string full =
        minimal() + "[recovery.nvm]\nstrategy = checkpoint\n"
                    "checkpoint_mj = 0.02\n";
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 200; ++round) {
        std::string mutated = full;
        const int edits = 1 + static_cast<int>(next() % 4);
        for (int e = 0; e < edits; ++e) {
            const auto pos = next() % mutated.size();
            mutated[pos] = static_cast<char>(next() & 0xFF);
        }
        try {
            (void)exp::parse_experiment_spec(mutated, kOrigin);
        } catch (const std::exception&) {
            // Rejection is fine; crashing or throwing a non-std exception
            // would abort the test binary.
        }
    }
    SUCCEED();
}

}  // namespace
