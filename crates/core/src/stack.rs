//! Per-worker work stacks with work stealing.
//!
//! Each GC worker owns a deque of *task entries*. The owner pushes and
//! pops at the back (LIFO, depth-first order — the order HotSpot's
//! collectors use); thieves steal from the front, which is what breaks the
//! LIFO reference-processing order that asynchronous flushing relies on
//! (paper §4.2): stolen entries mark the affected cache regions so they
//! opt out of async flushing.
//!
//! Entries are packed `u64`s: a heap slot address, a root-array index
//! (tagged with bit 63), or a card-scan region id (tagged with bit 62,
//! card-table remembered-set mode).

use crate::config::Traversal;
use nvmgc_heap::Addr;
use std::collections::VecDeque;

const ROOT_TAG: u64 = 1 << 63;
const CARD_TAG: u64 = 1 << 62;

/// A unit of copy-and-traverse work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// A reference slot in the heap.
    Slot(Addr),
    /// An index into the mutator root array.
    Root(u32),
    /// An old region with dirty cards to scan (card-table remembered-set
    /// mode).
    CardRegion(u32),
}

impl Task {
    /// Packs the task into a `u64`.
    pub fn encode(self) -> u64 {
        match self {
            Task::Slot(a) => {
                debug_assert_eq!(
                    a.raw() & (ROOT_TAG | CARD_TAG),
                    0,
                    "heap addresses stay low"
                );
                a.raw()
            }
            Task::Root(i) => ROOT_TAG | i as u64,
            Task::CardRegion(r) => CARD_TAG | r as u64,
        }
    }

    /// Unpacks a task.
    pub fn decode(v: u64) -> Task {
        if v & ROOT_TAG != 0 {
            Task::Root((v & !ROOT_TAG) as u32)
        } else if v & CARD_TAG != 0 {
            Task::CardRegion((v & !CARD_TAG) as u32)
        } else {
            Task::Slot(Addr(v))
        }
    }
}

/// The pool of all workers' stacks, indexed by worker id.
#[derive(Debug)]
pub struct WorkPool {
    stacks: Vec<VecDeque<u64>>,
    outstanding: usize,
    steals: u64,
}

impl WorkPool {
    /// Creates a pool for `workers` workers.
    pub fn new(workers: usize) -> Self {
        WorkPool {
            stacks: (0..workers).map(|_| VecDeque::new()).collect(),
            outstanding: 0,
            steals: 0,
        }
    }

    /// Total entries across all stacks.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Total successful steals so far.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Depth of one worker's stack.
    pub fn depth(&self, worker: usize) -> usize {
        self.stacks[worker].len()
    }

    /// Pushes a task onto `worker`'s stack.
    pub fn push(&mut self, worker: usize, task: Task) {
        self.stacks[worker].push_back(task.encode());
        self.outstanding += 1;
    }

    /// Pops the most recent task from `worker`'s own stack (DFS order).
    pub fn pop(&mut self, worker: usize) -> Option<Task> {
        let v = self.stacks[worker].pop_back()?;
        self.outstanding -= 1;
        Some(Task::decode(v))
    }

    /// Pops the *oldest* task from `worker`'s own stack (BFS order, used
    /// by the traversal-order ablation).
    pub fn pop_front(&mut self, worker: usize) -> Option<Task> {
        let v = self.stacks[worker].pop_front()?;
        self.outstanding -= 1;
        Some(Task::decode(v))
    }

    /// The task `worker` would pop `k + 1`-th under `traversal` — `k = 0`
    /// is the next one — without popping it: counted from the back under
    /// DFS ([`pop`](Self::pop)), from the front under BFS
    /// ([`pop_front`](Self::pop_front)). `None` past the end of the stack.
    pub fn peek(&self, worker: usize, traversal: Traversal, k: usize) -> Option<Task> {
        let stack = &self.stacks[worker];
        let at = match traversal {
            Traversal::Dfs => stack.len().checked_sub(k)?.checked_sub(1)?,
            Traversal::Bfs => k,
        };
        stack.get(at).copied().map(Task::decode)
    }

    /// Attempts to steal one task for `thief`, scanning victims round-robin
    /// starting after the thief. Returns the task and the victim id.
    pub fn steal(&mut self, thief: usize) -> Option<(Task, usize)> {
        let n = self.stacks.len();
        for d in 1..n {
            let victim = (thief + d) % n;
            if let Some(v) = self.stacks[victim].pop_front() {
                self.outstanding -= 1;
                self.steals += 1;
                return Some((Task::decode(v), victim));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_encoding_roundtrips() {
        let t1 = Task::Slot(Addr(0x12_3458));
        let t2 = Task::Root(77);
        let t3 = Task::CardRegion(4099);
        assert_eq!(Task::decode(t1.encode()), t1);
        assert_eq!(Task::decode(t2.encode()), t2);
        assert_eq!(Task::decode(t3.encode()), t3);
    }

    #[test]
    fn owner_pops_lifo() {
        let mut p = WorkPool::new(2);
        p.push(0, Task::Root(1));
        p.push(0, Task::Root(2));
        assert_eq!(p.pop(0), Some(Task::Root(2)));
        assert_eq!(p.pop(0), Some(Task::Root(1)));
        assert_eq!(p.pop(0), None);
    }

    #[test]
    fn bfs_pops_fifo() {
        let mut p = WorkPool::new(1);
        p.push(0, Task::Root(1));
        p.push(0, Task::Root(2));
        assert_eq!(p.pop_front(0), Some(Task::Root(1)));
        assert_eq!(p.pop_front(0), Some(Task::Root(2)));
    }

    #[test]
    fn peek_on_an_empty_stack_is_none() {
        let p = WorkPool::new(2);
        for traversal in [Traversal::Dfs, Traversal::Bfs] {
            assert_eq!(p.peek(0, traversal, 0), None);
            assert_eq!(p.peek(1, traversal, 2), None);
        }
    }

    #[test]
    fn peek_at_depth_one_sees_the_only_task_and_nothing_past_it() {
        let mut p = WorkPool::new(1);
        p.push(0, Task::Slot(Addr(0x4_0008)));
        for traversal in [Traversal::Dfs, Traversal::Bfs] {
            assert_eq!(p.peek(0, traversal, 0), Some(Task::Slot(Addr(0x4_0008))));
            assert_eq!(p.peek(0, traversal, 1), None, "k past the bottom");
            assert_eq!(p.peek(0, traversal, usize::MAX), None);
        }
        assert_eq!((p.depth(0), p.outstanding()), (1, 1), "peek pops nothing");
    }

    #[test]
    fn peek_counts_from_the_end_each_traversal_pops() {
        let filled = || {
            let mut p = WorkPool::new(2);
            for i in 1..=4 {
                p.push(1, Task::Root(i));
            }
            p
        };
        let p = filled();
        assert_eq!(
            p.peek(1, Traversal::Dfs, 0),
            Some(Task::Root(4)),
            "DFS: the back"
        );
        assert_eq!(
            p.peek(1, Traversal::Bfs, 0),
            Some(Task::Root(1)),
            "BFS: the front"
        );
        for traversal in [Traversal::Dfs, Traversal::Bfs] {
            let peeked: Vec<_> = (0..5).map(|k| p.peek(1, traversal, k)).collect();
            let mut q = filled();
            let popped: Vec<_> = (0..5)
                .map(|_| match traversal {
                    Traversal::Dfs => q.pop(1),
                    Traversal::Bfs => q.pop_front(1),
                })
                .collect();
            assert_eq!(peeked, popped, "{traversal:?}: peek sees the pop order");
        }
    }

    #[test]
    fn thief_steals_oldest_from_next_victim() {
        let mut p = WorkPool::new(3);
        p.push(1, Task::Root(10));
        p.push(1, Task::Root(11));
        let (t, victim) = p.steal(0).unwrap();
        assert_eq!(t, Task::Root(10), "steals from the front");
        assert_eq!(victim, 1);
        assert_eq!(p.steals(), 1);
    }

    #[test]
    fn steal_scans_all_victims() {
        let mut p = WorkPool::new(4);
        p.push(0, Task::Root(5));
        // Thief 1 must wrap around to find worker 0's task.
        let (t, victim) = p.steal(1).unwrap();
        assert_eq!(t, Task::Root(5));
        assert_eq!(victim, 0);
        assert!(p.steal(1).is_none());
    }

    #[test]
    fn outstanding_counts_accurately() {
        let mut p = WorkPool::new(2);
        assert_eq!(p.outstanding(), 0);
        p.push(0, Task::Root(1));
        p.push(1, Task::Root(2));
        assert_eq!(p.outstanding(), 2);
        p.pop(0);
        assert_eq!(p.outstanding(), 1);
        p.steal(0);
        assert_eq!(p.outstanding(), 0);
    }
}
