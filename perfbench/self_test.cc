// Self-tests of the driver's own helpers (`perfbench_driver --self-test`):
// tape determinism, the alert -> due-time mapping, the percentile
// estimator's sample rule, and the reference gate's sensitivity.
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void TapeDigests() {
  for (const std::string& name : WorkloadNames()) {
    const auto a = MakeWorkload(name, 7);
    const auto b = MakeWorkload(name, 7);
    const auto c = MakeWorkload(name, 8);
    Expect(a.ok() && b.ok() && c.ok(), name + ": builds");
    if (!a.ok() || !b.ok() || !c.ok()) continue;
    Expect(a.value().tape.Digest() == b.value().tape.Digest(),
           name + ": the same seed gives the same tape digest");
    Expect(a.value().tape.Digest() != c.value().tape.Digest(),
           name + ": another seed gives another tape digest");
  }
}

void DueTimeMapping() {
  // Synthetic schedule: 3 streams, 2 warm values each, then runs of two
  // values per stream, round-robin: run r carries stream r % 3 at stream
  // times 2 + 2 * (r / 3) and 3 + 2 * (r / 3).
  Workload w;
  w.tape.num_streams = 3;
  w.tape.run_length = 2;
  for (int t = 0; t < 2; ++t) {
    for (StreamId s = 0; s < 3; ++s) w.tape.warm.push_back({s, 0.0});
  }
  for (std::size_t r = 0; r < 6; ++r) {
    const std::size_t begin = w.tape.timed.size();
    for (int i = 0; i < 2; ++i) {
      w.tape.timed.push_back({static_cast<StreamId>(r % 3), 1.0});
    }
    w.tape.runs.emplace_back(begin, w.tape.timed.size());
  }
  w.run_of = BuildRunIndex(w.tape);
  Expect(RunOfAlert(w, 1, 0) == kWarmRun, "warm-up positions map to no run");
  Expect(RunOfAlert(w, 0, 2) == 0 && RunOfAlert(w, 0, 3) == 0,
         "stream 0, times 2 and 3 -> run 0");
  Expect(RunOfAlert(w, 2, 5) == 5, "stream 2, time 5 -> run 5");
  Expect(RunOfAlert(w, 1, 4) == 4, "stream 1, time 4 -> run 4");
  Expect(RunOfAlert(w, 1, 6) == kWarmRun, "positions past the tape map to no run");
  Expect(RunOfAlert(w, 9, 2) == kWarmRun, "unknown streams map to no run");
  const std::int64_t start = 1'000'000;
  Expect(DueNs(start, 320000.0, 0) == start, "run 0 is due at the start");
  Expect(DueNs(start, 320000.0, RunOfAlert(w, 2, 5)) == start + 5 * 320000,
         "stream 2, time 5 is due 5 intervals after the start");
}

void PercentileRule() {
  std::vector<double> samples;
  for (int i = 1; i <= 19; ++i) samples.push_back(i);
  Expect(!Percentile(samples, 0.5).has_value(),
         "p50 of 19 samples (9 beyond) is refused");
  samples.push_back(20);
  Expect(Percentile(samples, 0.5) == 10.0, "p50 of 1..20 is 10 (10 beyond)");
  std::vector<double> many(999, 1.0);
  Expect(!Percentile(many, 0.99).has_value(),
         "p99 of 999 samples (9 beyond) is refused");
  many.push_back(2.0);
  Expect(Percentile(many, 0.99).has_value(), "p99 of 1000 samples is given");
  Expect(!Percentile({}, 0.5).has_value(), "an empty sample gives nothing");
}

void ReferenceGate() {
  std::vector<AlertKey> reference;
  for (std::uint32_t s = 0; s < 5; ++s) {
    Alert alert;
    alert.query = 1 + s % 2;
    alert.stream = s;
    alert.end_time = 100 + s;
    alert.value = 3.5 * s;
    alert.threshold = 2.0;
    reference.push_back(KeyOf(alert));
  }
  std::vector<AlertKey> engine(reference.rbegin(), reference.rend());
  Expect(SameMultiset(engine, reference), "the gate ignores alert order");
  std::vector<AlertKey> perturbed = reference;
  perturbed[2].value_bits ^= 1;  // one ulp on one alert's value
  Expect(!SameMultiset(engine, perturbed), "a perturbed reference fails the gate");
  perturbed = reference;
  perturbed.pop_back();
  Expect(!SameMultiset(engine, perturbed), "a missing alert fails the gate");
  perturbed = reference;
  perturbed.push_back(reference[0]);
  Expect(!SameMultiset(engine, perturbed), "a duplicate alert fails the gate");
}

}  // namespace

int RunSelfTests() {
  TapeDigests();
  DueTimeMapping();
  PercentileRule();
  ReferenceGate();
  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
