//! # arb-core
//!
//! The paper's primary contribution: **two-phase query evaluation with
//! tree automata** (Sections 3 and 4).
//!
//! A TMNF program is evaluated on a binary tree in two deterministic
//! automaton runs:
//!
//! 1. **Bottom-up phase** — a deterministic bottom-up tree automaton `A`
//!    whose states are *residual propositional Horn programs* representing
//!    the sets of reachable states of the equivalent nondeterministic
//!    selecting tree automaton (STA). Its transition function
//!    `ComputeReachableStates` (paper Figure 2) is computed lazily.
//! 2. **Top-down phase** — a deterministic top-down automaton `B` over the
//!    tree of phase-1 state assignments; its states are the sets of *true
//!    predicates* per node, computed by `ComputeTruePreds` (paper
//!    Figure 3).
//!
//! By Theorem 4.1 the result equals the least-fixpoint semantics of the
//! TMNF program: `P ∈ ρB(v) ⇔ P(v) ∈ P(T)`.
//!
//! Module map:
//!
//! * [`sta`] — selecting tree automata (Definition 3.2), run enumeration,
//!   and the TMNF→STA translation for small programs,
//! * [`alphabet`] — dense interning of schema symbols (the automaton
//!   input alphabet `Σ_A = 2^σ`, arbitrary EDB width),
//! * [`lazy`] — the lazily-computed deterministic automata `A` and `B`
//!   (`ComputeReachableStates` / `ComputeTruePreds`) with interned states
//!   and transition hash tables,
//! * [`kernel`] — Algorithm 4.6 as one backward and one forward fold
//!   over a record stream: the single evaluation kernel, generic over
//!   where the records ([`kernel::RecordSource`]) and the phase-1 states
//!   ([`kernel::StateStore`]) live, sharded over a subtree frontier
//!   (the Section 6.2 parallelism case study) when asked to,
//! * [`frontier`] — subtree extents and frontier picking, the kernel's
//!   split planning,
//! * [`twophase`] — the raw-program fronts of the kernel over in-memory
//!   trees ([`evaluate_tree`], [`evaluate_tree_parallel`]),
//! * [`stats`] — transition counts, state counts and memory accounting
//!   (the paper's Figure 6 columns).

pub mod alphabet;
pub mod frontier;
pub mod kernel;
pub mod lazy;
pub mod sta;
pub mod stats;
pub mod twophase;

pub use alphabet::{AlphabetId, AlphabetInterner};
pub use frontier::SubtreeIndex;
pub use lazy::{AutomataPool, InternStats, QueryAutomata};
pub use stats::EvalStats;
pub use twophase::{evaluate_tree, evaluate_tree_parallel, TreeEvalResult};
