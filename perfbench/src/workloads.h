// The benchmark's four workloads. Each repetition builds a fresh Study
// from the seed (set-up), runs its pipeline (wall time) and checks its
// outputs; a traced repetition runs the same calls split per layer, with a
// span around each.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "core/study.h"

namespace v6bench {

class Workload {
 public:
  virtual ~Workload() = default;
  // Untimed work the output checks compare against (reference runs).
  virtual void prepare(Bench&) {}
  // One repetition. Records set-up and wall time and leaves the study
  // alive in study(): its final corpus is what the query phase serves.
  virtual void rep(Bench& bench, bool traced) = 0;
  // True when readers query while the pipeline runs (the query metrics
  // then come from rep()); otherwise the final corpus is served after the
  // last repetition.
  virtual bool serves_during_ingest() const { return false; }
  // Constructs the study and the query key list; the sum is one set-up
  // sample. Traced, world generation is also timed on its own.
  void setup(Bench& bench);

  v6::core::Study& study() { return *study_; }
  const std::vector<Key>& keys() const { return keys_; }

 protected:
  v6::core::StudyConfig config_;
  std::unique_ptr<v6::core::Study> study_;
  std::vector<Key> keys_;
};

// Null when the name is unknown.
std::unique_ptr<Workload> make_workload(const Options& options);

// Publishes the study's final corpus into a fresh service and runs the two
// readers against it for `seconds`.
void serve_final_corpus(Bench& bench, v6::core::Study& study,
                        const std::vector<Key>& keys, double seconds);

// Traced only: publish cost, snapshot size and per-family query cost on
// the study's final corpus, frozen.
void time_serving(Bench& bench, v6::core::Study& study,
                  const std::vector<Key>& keys);

// Traced only: Topology::path and DataPlane::hop_limited_echo on a fixed
// list of (target, TTL) pairs drawn from the seed.
void probe_netsim(Bench& bench, const v6::core::Study& study);

}  // namespace v6bench
