// obs_test.cpp — the telemetry subsystem: span nesting and cross-thread
// recording, exact counters under concurrency, gauge high-water marks,
// chrome-trace JSON well-formedness, reset semantics, the zero-allocation
// disabled path, and the RuntimeConfig/env surface built on top of it,
// including the SNE_TRACE=path exit hook (checked in a child process).
// Carries the `threaded` ctest label: spans and counters are recorded
// from pool workers, so the tsan preset exercises the per-thread logs.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/inference.h"
#include "core/joint_model.h"
#include "obs/obs.h"
#include "stream/tier1.h"
#include "tensor/env.h"
#include "tensor/runtime.h"
#include "tensor/thread_pool.h"
#include "alloc_counter.h"

extern char** environ;

namespace sne {
namespace {

// Every test leaves capture off and the registry empty, however it exits.
struct ObsGuard {
  ~ObsGuard() {
    obs::disable();
    obs::reset();
    set_num_threads(1);
  }
};

std::vector<obs::SpanRecord> spans_named(const char* name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : obs::snapshot_spans()) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s);
  }
  return out;
}

TEST(Obs, SpanNestingDepthsAndContainment) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  {
    obs::Span outer("test.outer");
    {
      obs::Span inner("test.inner", 42);
    }
  }
  const auto outer = spans_named("test.outer");
  const auto inner = spans_named("test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0);
  EXPECT_EQ(inner[0].depth, 1);
  EXPECT_EQ(outer[0].arg, obs::kNoArg);
  EXPECT_EQ(inner[0].arg, 42);
  EXPECT_EQ(outer[0].tid, inner[0].tid);
  // The inner interval lies within the outer one.
  EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
  EXPECT_LE(inner[0].start_ns + inner[0].dur_ns,
            outer[0].start_ns + outer[0].dur_ns);
}

TEST(Obs, SpansRecordedAcrossThreads) {
  ObsGuard guard;
  obs::reset();
  set_num_threads(4);
  obs::enable();
  parallel_for(0, 64, [](std::int64_t i) {
    obs::Span span("test.worker", i);
    volatile double x = 0.0;
    for (int k = 0; k < 100; ++k) x = x + static_cast<double>(k);
  });
  obs::disable();
  const auto spans = spans_named("test.worker");
  ASSERT_EQ(spans.size(), 64u);
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.depth, 0);
    EXPECT_GE(s.dur_ns, 0);
  }
}

TEST(Obs, CountersExactUnderConcurrency) {
  ObsGuard guard;
  obs::reset();
  set_num_threads(4);
  obs::enable();
  obs::Counter& c = obs::counter("test.concurrent");
  parallel_for(0, 1000, [&c](std::int64_t) { c.add(3); });
  obs::disable();
  EXPECT_EQ(c.value(), 3000);
  bool found = false;
  for (const obs::CounterRecord& rec : obs::snapshot_counters()) {
    if (rec.name == "test.concurrent") {
      found = true;
      EXPECT_EQ(rec.value, 3000);
      EXPECT_FALSE(rec.is_gauge);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Obs, CounterRegistryReturnsStableReferences) {
  ObsGuard guard;
  obs::Counter& a = obs::counter("test.stable");
  obs::Counter& b = obs::counter("test.stable");
  EXPECT_EQ(&a, &b);
  const char* p1 = obs::intern("test.dynamic.name");
  const char* p2 = obs::intern(std::string("test.dynamic.") + "name");
  EXPECT_EQ(p1, p2);
  EXPECT_STREQ(p1, "test.dynamic.name");
}

TEST(Obs, GaugeTracksValueAndHighWaterMark) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(5);
  g.set(9);
  g.set(2);
  obs::disable();
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 9);
  bool found = false;
  for (const obs::CounterRecord& rec : obs::snapshot_counters()) {
    if (rec.name == "test.gauge") {
      found = true;
      EXPECT_TRUE(rec.is_gauge);
      EXPECT_EQ(rec.value, 2);
      EXPECT_EQ(rec.max, 9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Obs, ResetClearsDataButKeepsCaptureState) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  obs::counter("test.reset").add(7);
  { obs::Span span("test.reset_span"); }
  obs::reset();
  EXPECT_TRUE(obs::enabled());  // capture state survives reset
  EXPECT_EQ(obs::counter("test.reset").value(), 0);
  EXPECT_TRUE(spans_named("test.reset_span").empty());
  // Recording still works after the reset.
  { obs::Span span("test.reset_span"); }
  EXPECT_EQ(spans_named("test.reset_span").size(), 1u);
}

TEST(Obs, ChromeTraceIsWellFormedJson) {
  ObsGuard guard;
  obs::reset();
  set_num_threads(2);
  obs::enable();
  obs::counter("test.trace_counter").add(11);
  {
    obs::Span outer("test.trace_outer", 5);
    parallel_for(0, 8, [](std::int64_t i) {
      obs::Span span("test.trace_worker", i);
    });
  }
  obs::disable();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();

  // Structure: one object, one traceEvents array, balanced delimiters.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  std::int64_t braces = 0, brackets = 0;
  for (const char ch : json) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Content: the spans, the counter, the per-thread metadata rows.
  EXPECT_NE(json.find("\"name\":\"test.trace_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.trace_worker\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.trace_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"arg\":5}"), std::string::npos);
}

TEST(Obs, SummaryTableListsSpansAndCounters) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  { obs::Span span("test.summary_span"); }
  obs::counter("test.summary_counter").add(4);
  obs::disable();
  const std::string table = obs::summary_table();
  EXPECT_NE(table.find("test.summary_span"), std::string::npos);
  EXPECT_NE(table.find("test.summary_counter"), std::string::npos);
}

TEST(Obs, DisabledPathDoesNotAllocate) {
  ObsGuard guard;
  obs::disable();
  obs::reset();
  obs::Counter& c = obs::counter("test.noalloc");  // lookup before arming
  obs::Gauge& g = obs::gauge("test.noalloc_gauge");

  test::arm_alloc_counter();
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("test.noalloc_span", i);
    c.add();
    g.set(i);
  }
  EXPECT_EQ(test::disarm_alloc_counter(), 0);
  EXPECT_EQ(c.value(), 0);
  EXPECT_TRUE(obs::snapshot_spans().empty());
}

// ---- the env/runtime surface the telemetry and pool knobs hang off ----

// Plan-step spans are named infer.<plan>.<i>.<layer>, so one trace holding
// the joint model's band CNN and classifier next to the cascade's tier 1
// (a night_cascade run) keeps their steps apart.
TEST(Obs, JointAndTier1PlanStepSpansAreDisjoint) {
  ObsGuard guard;
  Rng rng(5);
  core::JointModelConfig jc;
  jc.cnn.input_size = 36;
  core::JointModel joint(jc, rng);
  joint.set_training(false);
  stream::Tier1Cnn tier1(stream::Tier1Config{}, rng);
  tier1.set_training(false);
  infer::JointSession joint_session = core::make_session(joint);
  infer::InferenceSession tier1_session = stream::make_tier1_session(tier1);

  // Step span names recorded while `run` executes (the run-level spans
  // every session records are left out).
  const auto step_spans = [](auto&& run) {
    obs::reset();
    obs::enable();
    run();
    obs::disable();
    const std::set<std::string> run_level = {"infer.run", "infer.run.warmup",
                                             "infer.joint"};
    std::set<std::string> names;
    for (const obs::SpanRecord& s : obs::snapshot_spans()) {
      const std::string name = s.name;
      if (name.rfind("infer.", 0) == 0 && run_level.count(name) == 0) {
        names.insert(name);
      }
    }
    return names;
  };
  const Tensor joint_x = Tensor::rand_uniform(
      {3, core::JointModel::input_dim(36)}, rng, 0.0f, 1.0f);
  const Tensor tier1_x = Tensor::rand_uniform({3, 1, 21, 21}, rng, -1.0f, 1.0f);
  const std::set<std::string> joint_steps =
      step_spans([&] { (void)joint_session.run(joint_x); });
  const std::set<std::string> tier1_steps =
      step_spans([&] { (void)tier1_session.run(tier1_x); });

  ASSERT_FALSE(joint_steps.empty());
  ASSERT_FALSE(tier1_steps.empty());
  for (const std::string& name : joint_steps) {
    EXPECT_TRUE(name.rfind("infer.band_cnn.", 0) == 0 ||
                name.rfind("infer.classifier.", 0) == 0)
        << name;
    EXPECT_EQ(tier1_steps.count(name), 0u) << name;
  }
  for (const std::string& name : tier1_steps) {
    EXPECT_EQ(name.rfind("infer.tier1.", 0), 0u) << name;
  }
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("SNE_OBSTEST_GOOD", "42", 1);
  ::setenv("SNE_OBSTEST_JUNK", "42abc", 1);
  // Would clamp to LLONG_MAX under plain strtoll (the ERANGE bug the
  // shared helper fixes): must fall back instead.
  ::setenv("SNE_OBSTEST_HUGE", "99999999999999999999999", 1);
  ::setenv("SNE_OBSTEST_FLOAT", "2.5", 1);
  EXPECT_EQ(env::int64("OBSTEST_GOOD", 7), 42);
  EXPECT_EQ(env::int64("OBSTEST_JUNK", 7), 7);
  EXPECT_EQ(env::int64("OBSTEST_HUGE", 7), 7);
  EXPECT_EQ(env::int64("OBSTEST_UNSET_NAME", 7), 7);
  EXPECT_DOUBLE_EQ(env::float64("OBSTEST_FLOAT", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(env::float64("OBSTEST_JUNK", 1.0), 1.0);
  EXPECT_EQ(env::string("OBSTEST_GOOD", "x"), "42");
  EXPECT_EQ(env::string("OBSTEST_UNSET_NAME", "x"), "x");
  ::unsetenv("SNE_OBSTEST_GOOD");
  ::unsetenv("SNE_OBSTEST_JUNK");
  ::unsetenv("SNE_OBSTEST_HUGE");
  ::unsetenv("SNE_OBSTEST_FLOAT");
}

// The strict whole-string parser behind both env overrides and the CLI's
// flag values (tools/sne_cli.cpp routes --foo N through these so that
// "--top 20x" is an error naming the flag, not a silent parse of 20).
TEST(Env, StrictParsersRejectJunkTailsAndOverflow) {
  EXPECT_EQ(env::parse_int64("42").value_or(-1), 42);
  EXPECT_EQ(env::parse_int64("-7").value_or(-1), -7);
  EXPECT_EQ(env::parse_int64("  11").value_or(-1), 11);  // strtoll skip-ws
  EXPECT_FALSE(env::parse_int64(""));
  EXPECT_FALSE(env::parse_int64("12junk"));
  EXPECT_FALSE(env::parse_int64("12 "));
  EXPECT_FALSE(env::parse_int64("1e3"));  // not an integer literal
  EXPECT_FALSE(env::parse_int64("99999999999999999999999"));  // ERANGE
  EXPECT_FALSE(env::parse_int64("abc"));

  EXPECT_DOUBLE_EQ(env::parse_float64("2.5").value_or(-1.0), 2.5);
  EXPECT_DOUBLE_EQ(env::parse_float64("1e3").value_or(-1.0), 1000.0);
  EXPECT_FALSE(env::parse_float64(""));
  EXPECT_FALSE(env::parse_float64("0.5x"));
  EXPECT_FALSE(env::parse_float64("1e99999"));   // overflow: ERANGE
  EXPECT_FALSE(env::parse_float64("-1e99999"));  // negative overflow too
  // Underflow also sets ERANGE, but strtod already returns the nearest
  // representable value — tiny magnitudes are legitimate inputs and
  // must be accepted (subnormal), not rejected as unparsable.
  EXPECT_DOUBLE_EQ(env::parse_float64("1e-310").value_or(-1.0), 1e-310);
  EXPECT_DOUBLE_EQ(env::parse_float64("1e-5000").value_or(-1.0), 0.0);
}

TEST(RuntimeConfigTest, ResolvePrefetchAndTraceToggle) {
  ObsGuard guard;
  const RuntimeConfig saved = RuntimeConfig::current();

  RuntimeConfig rc = saved;
  rc.prefetch = 3;
  rc.trace = true;
  RuntimeConfig::set_current(rc);
  EXPECT_TRUE(obs::enabled());
  EXPECT_EQ(RuntimeConfig::resolve_prefetch(-1), 3);  // sentinel defers
  EXPECT_EQ(RuntimeConfig::resolve_prefetch(0), 0);   // explicit wins
  EXPECT_EQ(RuntimeConfig::resolve_prefetch(5), 5);

  rc.trace = false;
  RuntimeConfig::set_current(rc);
  EXPECT_FALSE(obs::enabled());

  RuntimeConfig::set_current(saved);
}

// Recursive-descent check of the JSON grammar (RFC 8259); no
// semantics, just "would a JSON parser accept this text".
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool valid() {
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ > start;
  }
  bool number() {
    if (s_[i_] == '-') ++i_;
    if (!digits()) return false;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!digits()) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digits()) return false;
    }
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // the closing quote
    return true;
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (eat('}')) return true;
      do {
        if (!string() || !eat(':') || !value()) return false;
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++i_;
      if (eat(']')) return true;
      do {
        if (!value()) return false;
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') return string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return number();
    }
    for (const char* lit : {"true", "false", "null"}) {
      if (s_.compare(i_, std::strlen(lit), lit) == 0) {
        i_ += std::strlen(lit);
        return true;
      }
    }
    return false;
  }

  std::string s_;
  std::size_t i_ = 0;
};

// The child half of the test below. Run on its own (SNE_TRACE unset) it
// records into a disabled registry, which is a no-op.
TEST(RuntimeTraceEnv, ChildRecordsSpan) {
  (void)RuntimeConfig::current();  // first touch applies SNE_TRACE
  obs::Span span("test.env_trace_child", 7);
}

// SNE_TRACE=<path> must make ANY binary write its chrome trace at exit:
// run this test binary as a child with the variable set, filtered to the
// span-recording test above, and parse the file it leaves behind.
TEST(RuntimeTraceEnv, ExitHookWritesChromeTraceFile) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(len, 0);
  exe[len] = '\0';
  const std::string path = testing::TempDir() + "sne_env_trace.json";
  std::remove(path.c_str());

  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SNE_TRACE=", 10) != 0) env.emplace_back(*e);
  }
  env.push_back("SNE_TRACE=" + path);
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::string filter = "--gtest_filter=RuntimeTraceEnv.ChildRecordsSpan";
  char* argv[] = {exe, filter.data(), nullptr};

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe, &actions, nullptr, argv, envp.data());
  posix_spawn_file_actions_destroy(&actions);
  ASSERT_EQ(rc, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "SNE_TRACE wrote no file at " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::remove(path.c_str());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.env_trace_child\""),
            std::string::npos);
}

}  // namespace
}  // namespace sne
