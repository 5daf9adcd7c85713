#include "harness/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace crp::harness {

namespace {

/// Overflow-safe ceiling division: totals near SIZE_MAX must not wrap
/// the block count to zero.
std::size_t block_count(std::size_t total, std::size_t block_size) {
  if (block_size == 0) {
    throw std::invalid_argument("block size must be positive");
  }
  return total / block_size + (total % block_size != 0 ? 1 : 0);
}

std::size_t resolve_threads(std::size_t threads) {
  return threads != 0
             ? threads
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t total_blocks(std::span<const std::size_t> totals,
                         std::size_t block_size) {
  std::size_t blocks = 0;
  for (const std::size_t total : totals) {
    blocks += block_count(total, block_size);
  }
  return blocks;
}

}  // namespace

std::size_t parallel_worker_count(std::span<const std::size_t> totals,
                                  std::size_t threads,
                                  std::size_t block_size) {
  return std::min(resolve_threads(threads),
                  std::max<std::size_t>(total_blocks(totals, block_size), 1));
}

void parallel_cells(std::span<const std::size_t> totals, std::size_t threads,
                    const CellSteps& steps, std::size_t block_size) {
  const std::size_t cells = totals.size();
  const std::size_t workers =
      parallel_worker_count(totals, threads, block_size);
  const auto run_block = [&](std::size_t worker, std::size_t cell,
                             std::size_t b) {
    const std::size_t begin = b * block_size;
    steps.block(worker, cell, begin,
                std::min(totals[cell], begin + block_size));
  };
  if (workers <= 1) {
    for (std::size_t cell = 0; cell < cells; ++cell) {
      if (steps.open) steps.open(cell);
      const std::size_t blocks = block_count(totals[cell], block_size);
      for (std::size_t b = 0; b < blocks; ++b) run_block(0, cell, b);
      if (steps.close) steps.close(cell);
    }
    return;
  }

  // Claims go through one mutex: a block is thousands of trials (or
  // one whole subtree), so the lock stays off the per-trial hot path.
  struct CellProgress {
    std::size_t blocks = 0;
    std::size_t claimed = 0;
    std::size_t done = 0;
    bool claimable = false;  ///< blocks may be claimed by any worker
  };
  std::vector<CellProgress> state(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    state[cell].blocks = block_count(totals[cell], block_size);
  }
  std::mutex mutex;
  std::condition_variable changed;
  std::vector<std::size_t> open_cells;  // ascending
  std::size_t next_cell = 0;
  std::exception_ptr error;

  const auto worker = [&](std::size_t id) {
    std::unique_lock lock(mutex);
    const auto fail = [&] {
      lock.lock();
      if (!error) error = std::current_exception();
      changed.notify_all();
    };
    while (!error) {
      std::size_t cell = cells;
      for (const std::size_t c : open_cells) {
        if (state[c].claimable && state[c].claimed < state[c].blocks) {
          cell = c;
          break;
        }
      }
      // Open the next cell only when no open cell has a block to claim.
      // Every open cell then has a worker inside it (running its first
      // block or its last claimed ones), so at most `workers` cells are
      // ever open.
      const bool opening = cell == cells && next_cell < cells;
      if (opening) {
        cell = next_cell++;
        open_cells.push_back(cell);
        state[cell].claimable = !steps.first_block_alone;
        if (state[cell].claimable) changed.notify_all();
      } else if (cell == cells) {
        if (open_cells.empty() && next_cell == cells) return;
        changed.wait(lock);
        continue;
      }
      CellProgress& claim = state[cell];
      const bool has_block = claim.claimed < claim.blocks;
      const std::size_t b = has_block ? claim.claimed++ : 0;
      lock.unlock();
      try {
        if (opening && steps.open) steps.open(cell);
        if (has_block) run_block(id, cell, b);
      } catch (...) {
        fail();
        return;
      }
      lock.lock();
      if (has_block) ++claim.done;
      if (opening && !claim.claimable) {
        claim.claimable = true;
        changed.notify_all();
      }
      if (claim.done < claim.blocks) continue;
      lock.unlock();
      try {
        if (steps.close) steps.close(cell);
      } catch (...) {
        fail();
        return;
      }
      lock.lock();
      open_cells.erase(
          std::find(open_cells.begin(), open_cells.end(), cell));
      changed.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker, i);
  } catch (...) {
    // A thread that cannot start stops the pool like a failing block:
    // the running workers drain and are joined before the rethrow.
    const std::lock_guard lock(mutex);
    if (!error) error = std::current_exception();
    changed.notify_all();
  }
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

void parallel_blocks(std::size_t total, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t block_size) {
  CellSteps steps;
  steps.block = [&fn](std::size_t, std::size_t, std::size_t begin,
                      std::size_t end) { fn(begin, end); };
  parallel_cells(std::span<const std::size_t>(&total, 1), threads, steps,
                 block_size);
}

}  // namespace crp::harness
