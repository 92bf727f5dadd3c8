#include "analysis/scan_source.h"

#include "hitlist/tiered_corpus.h"

namespace v6::analysis {

ScanSource make_source(const hitlist::TieredCorpus& runs) {
  ScanSource src;
  // Both calls populate lazy caches inside `runs`; doing it here keeps
  // the concurrent visit_blocks() path read-only.
  src.span = runs.segment_bounds().size();
  src.records = runs.merged_size();
  src.visit_blocks = [&runs](std::size_t begin, std::size_t end,
                             const ScanSource::BlockFn& fn) {
    runs.scan_segment_blocks(begin, end, fn);
  };
  // No `contains`: a point probe costs a block decode per run. Callers
  // invert the membership scan instead (see summarize_dataset).
  return src;
}

}  // namespace v6::analysis
