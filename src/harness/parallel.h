// Thread-pool execution for the Monte-Carlo harness: workers claim
// (cell, block) items — fixed-size blocks of a cell's trial indices,
// never individual trials.
//
// A cell is one measurement (one sweep cell, or the single cell of a
// measure_blocks call). The block partition of each cell's [0, trials)
// depends only on its trial count and the block size — never on the
// thread count or scheduling — and every consumer derives per-trial
// (or per-block) state purely from the block's index range. Results
// assembled per cell are therefore bit-identical to a serial run at
// any thread count (tests/parallel_measure_test.cpp and
// tests/sweep_test.cpp pin this down).
//
// Layering: channel/engine.h defines *what* runs on a block (columnar
// engines), this header defines *where* blocks run, and
// harness/measure.h glues the two into Measurements. The API is
// block-granular only: parallel_cells for many cells, parallel_blocks
// for one. A per-trial workload either loops over its block's indices
// itself (worst_case_deterministic_rounds, with a small block size) or
// becomes an engine (channel::AdapterEngine) under measure_blocks.
//
/// Ownership: the pool is per call — threads are spawned inside
/// parallel_cells (or parallel_blocks, its one-cell case) and joined
/// before it returns; no worker, queue, or task outlives the call, and
/// the steps only borrow caller state. A cell's open/close steps
/// bracket whatever per-cell state the caller keeps (measure_cells
/// holds a cell's engine and fold from open to close), and at most
/// `workers` cells are open at once, so that state is bounded by the
/// pool width rather than the grid size. This header owns no result
/// type: Measurements are assembled by harness/measure.h's fold.
///
/// Thread-safety: steps are invoked concurrently on distinct blocks
/// (of one cell or of different cells) and must be safe under that;
/// open and close run once per cell, with no block of that cell in
/// flight. The first exception thrown by any step stops further
/// claims and is rethrown on the caller's thread after the pool
/// drains.
///
/// Determinism: the block partition depends only on (trials,
/// block_size) per cell — never on the thread count or on which
/// worker claims which block — so consumers that derive state per
/// block index and fold exactly (element-indexed writes, integer
/// accumulators; determinism leg 3) are bit-identical to a serial run
/// at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <span>


namespace crp::harness {

/// Block size used by the columnar measurement paths. A fixed power of
/// two (not derived from the thread count) so the partition — and any
/// per-block derived state — is identical at every thread count.
inline constexpr std::size_t kTrialBlockSize = 1024;

/// The per-cell steps parallel_cells runs. `block` is required; `open`
/// and `close` may be empty.
struct CellSteps {
  /// Runs once per cell, on the worker that claims the cell's first
  /// block, before that block.
  std::function<void(std::size_t cell)> open;
  /// Runs block [begin, end) of `cell` on worker `worker`, in [0,
  /// parallel_worker_count(...)). A worker runs its blocks one at a
  /// time, so per-worker state needs no synchronization.
  std::function<void(std::size_t worker, std::size_t cell, std::size_t begin,
                     std::size_t end)>
      block;
  /// Runs once per cell, after its last block has returned.
  std::function<void(std::size_t cell)> close;
  /// When true, a cell's first block runs alone: no other worker
  /// claims a block of that cell until it returns. Engines build their
  /// tables and trees lazily on first use, so this keeps two workers
  /// from building the same ones.
  bool first_block_alone = false;
};

/// Runs every block of every cell — cell c's trials [0, totals[c])
/// cut into `block_size` blocks, the last one short — on one pool of
/// `threads` workers (0 = all hardware threads; a pool of one runs
/// inline on the calling thread, cells and blocks in order). Cells
/// open in index order, at most one per worker at a time; an idle
/// worker claims the next block of the lowest open cell that has one,
/// and opens the next cell only when no open cell has a block left to
/// claim. A cell with no trials is opened and closed with no blocks.
void parallel_cells(std::span<const std::size_t> totals, std::size_t threads,
                    const CellSteps& steps,
                    std::size_t block_size = kTrialBlockSize);

/// The number of workers parallel_cells spawns for (totals, threads,
/// block_size): threads resolved (0 = all hardware threads), then
/// capped by the total block count, never below 1. Callers that give
/// each worker private state (scratch columns) size their arrays with
/// this.
std::size_t parallel_worker_count(std::span<const std::size_t> totals,
                                  std::size_t threads,
                                  std::size_t block_size = kTrialBlockSize);

/// The one-cell case of parallel_cells: runs fn(begin, end) for every
/// block [begin, end) of the fixed partition of [0, total) into
/// `block_size`-sized blocks across `threads` workers (0 = all
/// hardware threads; <= 1 runs inline on the calling thread, in block
/// order). Workers claim whole blocks, so fn must be safe to call
/// concurrently on distinct blocks. The first exception thrown is
/// rethrown on the caller's thread after the pool drains.
void parallel_blocks(std::size_t total, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t block_size = kTrialBlockSize);

}  // namespace crp::harness
