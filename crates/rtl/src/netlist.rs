//! Netlist introspection: the signal-level dataflow graph of an elaborated
//! design, and the structural analyses that run on it.
//!
//! Every [`crate::sim::Simulator::add_process`] /
//! [`crate::sim::Simulator::add_process_rising`] registration records the
//! process's sensitivity list together with the structural self-description
//! the process volunteers through [`crate::sim::RtlProcess::io`]: its read
//! set, write set and kind (combinational, clocked or generator).
//! [`crate::sim::Simulator::netlist`] assembles those records into a
//! [`NetlistGraph`] of signal→process→signal edges, tagged with clock/reset
//! domains, external pin marks and gated-clock busy links.
//!
//! [`NetlistGraph::analyze`] runs the structural lint checks behind the
//! `CAST1xx` diagnostic family on the graph: combinational loops (SCC over
//! the zero-delay subgraph), multi-driver conflicts, sensitivity-list
//! completeness, dead/undriven signals and gated-clock feedback hazards. A
//! DUT with any of these defects simulates *differently* from its
//! synthesized netlist — the sim/synth mismatch the co-verification flow
//! must rule out before system-level simulation starts.
//!
//! Processes that do not implement [`crate::sim::RtlProcess::io`] are
//! *opaque*: the analyses skip them, so no finding comes from a guessed
//! read set.

use crate::signal::{ProcId, SignalId};
use std::collections::HashMap;
use std::fmt;

/// What kind of behaviour a process implements, for dataflow purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessKind {
    /// Zero-delay logic: an event on any read input re-evaluates the
    /// outputs within the same delta cycle. These processes form the
    /// combinational subgraph that must be loop-free.
    Combinational,
    /// Edge-triggered logic: state changes only on rising edges of the
    /// given clock. Clocked writes break combinational cycles.
    Clocked {
        /// The clock whose rising edge triggers the process.
        clock: SignalId,
    },
    /// Self-scheduling stimulus (clock generators, test drivers): wakes on
    /// its own timer rather than on input events.
    Generator,
}

/// A process's structural self-description: what it reads, what it writes,
/// and how (see [`ProcessKind`]). Returned by
/// [`crate::sim::RtlProcess::io`] and recorded at registration time.
#[derive(Debug, Clone)]
pub struct ProcessIo {
    /// Human-readable label used in reports (`proc#N` when empty).
    pub name: String,
    /// Dataflow kind.
    pub kind: ProcessKind,
    /// Synchronous reset input, when the process has one (clocked kinds
    /// only; used for reset-domain tagging).
    pub reset: Option<SignalId>,
    /// Every signal the process reads while running.
    pub reads: Vec<SignalId>,
    /// Every signal the process assigns.
    pub writes: Vec<SignalId>,
}

impl ProcessIo {
    /// Describes a combinational process.
    #[must_use]
    pub fn combinational(name: impl Into<String>) -> Self {
        ProcessIo {
            name: name.into(),
            kind: ProcessKind::Combinational,
            reset: None,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Describes a clocked process triggered by `clock`.
    #[must_use]
    pub fn clocked(name: impl Into<String>, clock: SignalId) -> Self {
        ProcessIo {
            name: name.into(),
            kind: ProcessKind::Clocked { clock },
            reset: None,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Describes a self-scheduling generator process.
    #[must_use]
    pub fn generator(name: impl Into<String>) -> Self {
        ProcessIo {
            name: name.into(),
            kind: ProcessKind::Generator,
            reset: None,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Tags the synchronous reset input.
    #[must_use]
    pub fn with_reset(mut self, reset: SignalId) -> Self {
        self.reset = Some(reset);
        self
    }

    /// Adds read-set entries.
    #[must_use]
    pub fn reads(mut self, signals: impl IntoIterator<Item = SignalId>) -> Self {
        self.reads.extend(signals);
        self
    }

    /// Adds write-set entries.
    #[must_use]
    pub fn writes(mut self, signals: impl IntoIterator<Item = SignalId>) -> Self {
        self.writes.extend(signals);
        self
    }
}

/// A signal node of the netlist graph.
#[derive(Debug, Clone)]
pub struct NetSignal {
    /// Declared name.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Declared as an external input pin: driven by the test bench or
    /// co-simulation entity via pokes, so "no process drives it" is fine.
    pub external_input: bool,
    /// Declared as an external output pin: observed from outside the
    /// kernel, so "no process reads it" is fine.
    pub external_output: bool,
    /// Marked for waveform tracing.
    pub traced: bool,
    /// `Some` when the signal is the output of [`Simulator::add_clock`] or
    /// [`Simulator::add_gated_clock`].
    ///
    /// [`Simulator::add_clock`]: crate::sim::Simulator::add_clock
    /// [`Simulator::add_gated_clock`]: crate::sim::Simulator::add_gated_clock
    pub clock_root: bool,
}

/// A process node of the netlist graph.
#[derive(Debug, Clone)]
pub struct NetProcess {
    /// Any-edge sensitivity list (deduplicated, registration order).
    pub sensitivity_any: Vec<SignalId>,
    /// Rising-edge-only sensitivity list.
    pub sensitivity_rising: Vec<SignalId>,
    /// Structural self-description; `None` for opaque processes.
    pub io: Option<ProcessIo>,
}

impl NetProcess {
    /// Report label: the declared name, or `proc#N` for opaque processes.
    #[must_use]
    pub fn label(&self, index: usize) -> String {
        match &self.io {
            Some(io) if !io.name.is_empty() => io.name.clone(),
            _ => format!("proc#{index}"),
        }
    }

    /// `true` when the process declared no [`ProcessIo`].
    #[must_use]
    pub fn is_opaque(&self) -> bool {
        self.io.is_none()
    }

    /// The union of both sensitivity lists.
    fn wake_set(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.sensitivity_any
            .iter()
            .chain(self.sensitivity_rising.iter())
            .copied()
    }
}

/// A gated clock and the busy signal that controls it (one entry per
/// [`Simulator::add_gated_clock`]).
///
/// [`Simulator::add_gated_clock`]: crate::sim::Simulator::add_gated_clock
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatedClockLink {
    /// The generated clock signal.
    pub clk: SignalId,
    /// The 1-bit busy request line the generator samples.
    pub busy: SignalId,
}

/// How serious a structural finding is. Mirrors the lint crate's severity
/// scale without depending on it, so the core preflight can filter the
/// error subset natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructuralSeverity {
    /// The netlist will misbehave at run time (delta runaway, resolution
    /// fight, sim/synth mismatch).
    Error,
    /// Suspicious structure that risks silent divergence.
    Warning,
    /// Advisory only.
    Info,
}

/// One step of a reported combinational cycle: the process and the signal
/// it drives onward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopStep {
    /// The process on the cycle.
    pub process: ProcId,
    /// The signal it writes that the next process on the cycle reads.
    pub via: SignalId,
}

/// One finding of [`NetlistGraph::analyze`]. The lint crate maps each
/// variant to a stable `CAST1xx` diagnostic code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructuralFinding {
    /// A cycle through zero-delay processes: the delta loop never settles
    /// (the kernel aborts with `DeltaRunaway`) and synthesis would reject
    /// or mis-build it. `cycle` walks the loop once, in order.
    CombinationalLoop {
        /// The processes on the cycle, each with its onward signal.
        cycle: Vec<LoopStep>,
    },
    /// Two or more combinational processes drive the same signal: every
    /// settling re-runs the resolution table and any disagreement poisons
    /// the value to `X`.
    MultiDriverConflict {
        /// The contested signal.
        signal: SignalId,
        /// All combinational drivers.
        drivers: Vec<ProcId>,
    },
    /// Two or more clocked processes in the *same* clock domain write the
    /// same signal: on a shared edge both contributions land in one delta
    /// cycle and the resolved value depends on driver resolution, not on
    /// program order — a write-after-write race.
    SameEdgeWriteRace {
        /// The contested signal.
        signal: SignalId,
        /// The same-domain clocked drivers.
        drivers: Vec<ProcId>,
        /// Their shared clock.
        clock: SignalId,
    },
    /// A combinational process reads a signal missing from its wake list:
    /// the simulator holds the stale output until some *other* listed
    /// signal changes, while the synthesized netlist updates immediately —
    /// the classic sim/synth mismatch.
    MissingSensitivity {
        /// The offending process.
        process: ProcId,
        /// The read-but-not-listed signal.
        signal: SignalId,
    },
    /// A clocked process's declared clock is absent from both sensitivity
    /// lists: the process can never be woken by its own clock.
    ClockNotInSensitivity {
        /// The offending process.
        process: ProcId,
        /// The declared clock.
        clock: SignalId,
    },
    /// A sensitivity entry the process never reads: each event is a
    /// spurious wake-up (pure simulation cost, no behaviour change).
    UnreadSensitivity {
        /// The over-subscribed process.
        process: ProcId,
        /// The listed-but-unread signal.
        signal: SignalId,
    },
    /// A signal some process writes but nothing reads, wakes on, traces or
    /// observes externally: dead logic.
    DeadSignal {
        /// The unobserved signal.
        signal: SignalId,
    },
    /// A signal some process reads but nothing drives — not a process, not
    /// an external input pin: it stays `U`/`X` forever.
    UndrivenSignal {
        /// The undriven signal.
        signal: SignalId,
        /// One of its readers.
        reader: ProcId,
    },
    /// A gated clock's busy line is combinationally derived from a signal
    /// registered in the domain of that same gated clock: once the clock
    /// parks, the only logic that could raise busy again is itself waiting
    /// for a clock edge — a feedback deadlock hazard.
    GatedBusyFeedback {
        /// The gated clock.
        clock: SignalId,
        /// Its busy line.
        busy: SignalId,
        /// The domain-registered signal busy combinationally depends on.
        origin: SignalId,
    },
    /// A gated clock's busy line has no driver at all (and is not an
    /// external input): the clock parks at elaboration and never starts.
    GatedBusyUndriven {
        /// The gated clock.
        clock: SignalId,
        /// Its undriven busy line.
        busy: SignalId,
    },
}

impl StructuralFinding {
    /// The finding's severity.
    #[must_use]
    pub fn severity(&self) -> StructuralSeverity {
        match self {
            StructuralFinding::CombinationalLoop { .. }
            | StructuralFinding::MultiDriverConflict { .. }
            | StructuralFinding::MissingSensitivity { .. }
            | StructuralFinding::ClockNotInSensitivity { .. }
            | StructuralFinding::GatedBusyFeedback { .. }
            | StructuralFinding::GatedBusyUndriven { .. } => StructuralSeverity::Error,
            StructuralFinding::SameEdgeWriteRace { .. }
            | StructuralFinding::DeadSignal { .. }
            | StructuralFinding::UndrivenSignal { .. } => StructuralSeverity::Warning,
            StructuralFinding::UnreadSensitivity { .. } => StructuralSeverity::Info,
        }
    }
}

/// The signal-level dataflow graph of an elaborated design. Built by
/// [`crate::sim::Simulator::netlist`].
#[derive(Debug, Clone)]
pub struct NetlistGraph {
    /// Signal nodes, indexed by [`SignalId::index`].
    pub signals: Vec<NetSignal>,
    /// Process nodes, indexed by process id.
    pub processes: Vec<NetProcess>,
    /// Gated-clock control links.
    pub gated_clocks: Vec<GatedClockLink>,
    /// Process drivers of each signal (from declared write sets).
    drivers: Vec<Vec<ProcId>>,
    /// Process readers of each signal (from declared read sets).
    readers: Vec<Vec<ProcId>>,
}

impl NetlistGraph {
    /// Assembles the graph from raw node tables. Prefer
    /// [`crate::sim::Simulator::netlist`].
    #[must_use]
    pub fn new(
        signals: Vec<NetSignal>,
        processes: Vec<NetProcess>,
        gated_clocks: Vec<GatedClockLink>,
    ) -> Self {
        let mut drivers = vec![Vec::new(); signals.len()];
        let mut readers = vec![Vec::new(); signals.len()];
        for (idx, p) in processes.iter().enumerate() {
            if let Some(io) = &p.io {
                for &s in &io.writes {
                    let slot: &mut Vec<ProcId> = &mut drivers[s.index()];
                    if !slot.contains(&ProcId(idx)) {
                        slot.push(ProcId(idx));
                    }
                }
                for &s in &io.reads {
                    let slot: &mut Vec<ProcId> = &mut readers[s.index()];
                    if !slot.contains(&ProcId(idx)) {
                        slot.push(ProcId(idx));
                    }
                }
            }
        }
        NetlistGraph {
            signals,
            processes,
            gated_clocks,
            drivers,
            readers,
        }
    }

    /// Processes whose declared write set contains `signal`.
    #[must_use]
    pub fn drivers(&self, signal: SignalId) -> &[ProcId] {
        &self.drivers[signal.index()]
    }

    /// Processes whose declared read set contains `signal`.
    #[must_use]
    pub fn readers(&self, signal: SignalId) -> &[ProcId] {
        &self.readers[signal.index()]
    }

    /// The clock domain of `signal`: the clock of its clocked driver, when
    /// it has exactly one such domain. Signals written by combinational
    /// logic inherit the domain transitively only if forced; this tag is
    /// the *direct* one.
    #[must_use]
    pub fn domain(&self, signal: SignalId) -> Option<SignalId> {
        let mut domain = None;
        for &p in self.drivers(signal) {
            if let Some(ProcessIo {
                kind: ProcessKind::Clocked { clock },
                ..
            }) = self.processes[p.0].io
            {
                match domain {
                    None => domain = Some(clock),
                    Some(d) if d == clock => {}
                    Some(_) => return None, // multi-domain: no single tag
                }
            }
        }
        domain
    }

    /// The reset domain of `signal`: the reset of its clocked driver, when
    /// unique.
    #[must_use]
    pub fn reset_domain(&self, signal: SignalId) -> Option<SignalId> {
        let mut domain = None;
        for &p in self.drivers(signal) {
            if let Some(io) = &self.processes[p.0].io {
                if let (ProcessKind::Clocked { .. }, Some(rst)) = (io.kind, io.reset) {
                    match domain {
                        None => domain = Some(rst),
                        Some(d) if d == rst => {}
                        Some(_) => return None,
                    }
                }
            }
        }
        domain
    }

    fn kind(&self, p: ProcId) -> Option<ProcessKind> {
        self.processes[p.0].io.as_ref().map(|io| io.kind)
    }

    fn is_comb(&self, p: ProcId) -> bool {
        self.kind(p) == Some(ProcessKind::Combinational)
    }

    /// Zero-delay successor processes of `p`: combinational readers of the
    /// signals `p` writes.
    fn comb_successors(&self, p: ProcId) -> Vec<(ProcId, SignalId)> {
        let mut out = Vec::new();
        if let Some(io) = &self.processes[p.0].io {
            for &s in &io.writes {
                for &q in self.readers(s) {
                    if self.is_comb(q) && !out.contains(&(q, s)) {
                        out.push((q, s));
                    }
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Combinational loops (SCC over the zero-delay subgraph)
    // ------------------------------------------------------------------

    /// Finds every combinational cycle: strongly connected components of
    /// the zero-delay process graph with more than one node, plus genuine
    /// self-loops. Each returned cycle walks the loop once in order.
    #[must_use]
    pub fn combinational_loops(&self) -> Vec<Vec<LoopStep>> {
        let sccs = self.comb_sccs();
        let mut loops = Vec::new();
        for scc in sccs {
            if scc.len() == 1 {
                let p = scc[0];
                // Self-loop: p reads a signal it also writes.
                let Some(io) = &self.processes[p.0].io else {
                    continue;
                };
                if let Some(&via) = io.writes.iter().find(|w| io.reads.contains(w)) {
                    loops.push(vec![LoopStep { process: p, via }]);
                }
            } else {
                loops.push(self.extract_cycle(&scc));
            }
        }
        loops
    }

    /// Tarjan's algorithm (iterative) over combinational processes.
    fn comb_sccs(&self) -> Vec<Vec<ProcId>> {
        let n = self.processes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs = Vec::new();

        // Explicit DFS state: (node, successor iterator position).
        for start in 0..n {
            if !self.is_comb(ProcId(start)) || index[start] != usize::MAX {
                continue;
            }
            let mut dfs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
            let succs: Vec<usize> = self
                .comb_successors(ProcId(start))
                .into_iter()
                .map(|(q, _)| q.0)
                .collect();
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            dfs.push((start, 0, succs));
            while let Some((v, i, succs)) = dfs.last_mut() {
                if let Some(&w) = succs.get(*i) {
                    *i += 1;
                    if index[w] == usize::MAX {
                        let v_copy = *v;
                        let w_succs: Vec<usize> = self
                            .comb_successors(ProcId(w))
                            .into_iter()
                            .map(|(q, _)| q.0)
                            .collect();
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        dfs.push((w, 0, w_succs));
                        let _ = v_copy;
                    } else if on_stack[w] {
                        let v = *v;
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    let (v, _, _) = dfs.pop().expect("frame");
                    if let Some(&(parent, _, _)) = dfs.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("scc stack");
                            on_stack[w] = false;
                            scc.push(ProcId(w));
                            if w == v {
                                break;
                            }
                        }
                        scc.sort_by_key(|p| p.0);
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// Walks one actual cycle inside a multi-node SCC, returning it in
    /// traversal order starting from the lowest-numbered process.
    fn extract_cycle(&self, scc: &[ProcId]) -> Vec<LoopStep> {
        let in_scc = |p: ProcId| scc.contains(&p);
        let start = scc[0];
        // DFS restricted to the SCC until we come back to `start`.
        let mut path: Vec<LoopStep> = Vec::new();
        let mut visited: Vec<ProcId> = vec![start];
        let mut current = start;
        'walk: loop {
            for (q, via) in self.comb_successors(current) {
                if !in_scc(q) {
                    continue;
                }
                if q == start {
                    path.push(LoopStep {
                        process: current,
                        via,
                    });
                    return path;
                }
                if !visited.contains(&q) {
                    visited.push(q);
                    path.push(LoopStep {
                        process: current,
                        via,
                    });
                    current = q;
                    continue 'walk;
                }
            }
            // Dead end inside the SCC (can't happen in a true SCC, but
            // don't loop forever on a malformed graph): back out.
            match path.pop() {
                Some(step) => current = step.process,
                None => return vec![],
            }
        }
    }

    // ------------------------------------------------------------------
    // Structural checks
    // ------------------------------------------------------------------

    /// Runs every structural check and returns all findings. Opaque
    /// processes are skipped (their reads/writes are unknown), except that
    /// their sensitivity lists still count as "reads" for dead-signal
    /// purposes.
    #[must_use]
    pub fn analyze(&self) -> Vec<StructuralFinding> {
        let mut findings = Vec::new();

        // CAST100 — combinational loops.
        for cycle in self.combinational_loops() {
            findings.push(StructuralFinding::CombinationalLoop { cycle });
        }

        // CAST110/111 — multi-driver conflicts and same-edge write races.
        for (idx, procs) in self.drivers.iter().enumerate() {
            if procs.len() < 2 {
                continue;
            }
            let signal = SignalId(idx);
            let comb: Vec<ProcId> = procs.iter().copied().filter(|&p| self.is_comb(p)).collect();
            if comb.len() >= 2 {
                findings.push(StructuralFinding::MultiDriverConflict {
                    signal,
                    drivers: comb,
                });
            }
            // Group clocked drivers by clock.
            let mut by_clock: HashMap<SignalId, Vec<ProcId>> = HashMap::new();
            for &p in procs {
                if let Some(ProcessKind::Clocked { clock }) = self.kind(p) {
                    by_clock.entry(clock).or_default().push(p);
                }
            }
            let mut races: Vec<(SignalId, Vec<ProcId>)> = by_clock
                .into_iter()
                .filter(|(_, ps)| ps.len() >= 2)
                .collect();
            races.sort_by_key(|(clk, _)| clk.index());
            for (clock, drivers) in races {
                findings.push(StructuralFinding::SameEdgeWriteRace {
                    signal,
                    drivers,
                    clock,
                });
            }
        }

        // CAST120/121/122 — sensitivity-list checks.
        for (idx, p) in self.processes.iter().enumerate() {
            let Some(io) = &p.io else { continue };
            let pid = ProcId(idx);
            match io.kind {
                ProcessKind::Combinational => {
                    for &r in &io.reads {
                        if !p.wake_set().any(|s| s == r) {
                            findings.push(StructuralFinding::MissingSensitivity {
                                process: pid,
                                signal: r,
                            });
                        }
                    }
                }
                ProcessKind::Clocked { clock } => {
                    if !p.wake_set().any(|s| s == clock) {
                        findings.push(StructuralFinding::ClockNotInSensitivity {
                            process: pid,
                            clock,
                        });
                    }
                }
                ProcessKind::Generator => {}
            }
            // Spurious wakes apply to all declared kinds: an entry that is
            // neither read nor the trigger clock costs wake-ups for free.
            // Clocked processes legitimately listen on input signals to
            // re-arm gated clocks, so only combinational processes are
            // held to the exact-match standard.
            if io.kind == ProcessKind::Combinational {
                for s in p.wake_set() {
                    if !io.reads.contains(&s) {
                        findings.push(StructuralFinding::UnreadSensitivity {
                            process: pid,
                            signal: s,
                        });
                    }
                }
            }
        }

        // CAST130/131 — dead and undriven signals. Opaque processes may
        // read anything, so a netlist containing any opaque process only
        // reports dead signals that are also absent from every sensitivity
        // list (the one observation channel opaque processes declare).
        let any_opaque = self.processes.iter().any(NetProcess::is_opaque);
        for (idx, sig) in self.signals.iter().enumerate() {
            let id = SignalId(idx);
            let written = !self.drivers[idx].is_empty();
            let read = !self.readers[idx].is_empty()
                || self.processes.iter().any(|p| p.wake_set().any(|s| s == id));
            if written
                && !read
                && !sig.external_output
                && !sig.traced
                && !sig.clock_root
                && !any_opaque
            {
                findings.push(StructuralFinding::DeadSignal { signal: id });
            }
            if !written && !sig.external_input && !sig.clock_root {
                if let Some(&reader) = self.readers[idx].first() {
                    findings.push(StructuralFinding::UndrivenSignal { signal: id, reader });
                }
            }
        }

        // CAST140/141 — gated-clock safety.
        for link in &self.gated_clocks {
            let busy_idx = link.busy.index();
            if self.drivers[busy_idx].is_empty() && !self.signals[busy_idx].external_input {
                findings.push(StructuralFinding::GatedBusyUndriven {
                    clock: link.clk,
                    busy: link.busy,
                });
                continue;
            }
            // Combinational ancestry of busy: walk back through comb
            // processes only. If any ancestor signal is registered in the
            // gated clock's own domain, the restart path is dead once the
            // clock parks.
            if let Some(origin) = self.comb_ancestor_in_domain(link.busy, link.clk) {
                findings.push(StructuralFinding::GatedBusyFeedback {
                    clock: link.clk,
                    busy: link.busy,
                    origin,
                });
            }
        }

        findings
    }

    /// Walks the combinational ancestry of `sig`; returns the first
    /// ancestor signal (possibly `sig`'s comb-driver input) that is written
    /// by a process clocked by `clock` — but only when the dependence runs
    /// through at least one combinational driver (a direct clocked write of
    /// `sig` itself is the safe, edge-aligned pattern).
    fn comb_ancestor_in_domain(&self, sig: SignalId, clock: SignalId) -> Option<SignalId> {
        let mut seen = vec![false; self.signals.len()];
        let mut frontier: Vec<SignalId> = Vec::new();
        seen[sig.index()] = true;
        // Seed: inputs of combinational drivers of `sig`.
        for &p in self.drivers(sig) {
            if !self.is_comb(p) {
                continue;
            }
            if let Some(io) = &self.processes[p.0].io {
                for &r in &io.reads {
                    if !seen[r.index()] {
                        seen[r.index()] = true;
                        frontier.push(r);
                    }
                }
            }
        }
        while let Some(s) = frontier.pop() {
            for &p in self.drivers(s) {
                match self.kind(p) {
                    Some(ProcessKind::Clocked { clock: c }) if c == clock => {
                        return Some(s);
                    }
                    Some(ProcessKind::Combinational) => {
                        if let Some(io) = &self.processes[p.0].io {
                            for &r in &io.reads {
                                if !seen[r.index()] {
                                    seen[r.index()] = true;
                                    frontier.push(r);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Formats a finding for people, resolving ids to names. This is the
    /// text the core preflight and the lint pass both present.
    #[must_use]
    pub fn describe(&self, finding: &StructuralFinding) -> String {
        let sig = |s: SignalId| self.signals[s.index()].name.clone();
        let proc_ = |p: ProcId| self.processes[p.0].label(p.0);
        match finding {
            StructuralFinding::CombinationalLoop { cycle } => {
                let mut path = String::new();
                for step in cycle {
                    let _ = fmt::Write::write_fmt(
                        &mut path,
                        format_args!("{} -> {} -> ", proc_(step.process), sig(step.via)),
                    );
                }
                let back_to = cycle
                    .first()
                    .map_or_else(String::new, |s| proc_(s.process));
                format!("combinational loop: {path}{back_to} (zero-delay cycle never settles)")
            }
            StructuralFinding::MultiDriverConflict { signal, drivers } => {
                let names: Vec<String> = drivers.iter().map(|&p| proc_(p)).collect();
                format!(
                    "signal {} is driven by {} combinational processes ({}) — \
                     continuous resolution fight, X poisoning on any disagreement",
                    sig(*signal),
                    drivers.len(),
                    names.join(", ")
                )
            }
            StructuralFinding::SameEdgeWriteRace {
                signal,
                drivers,
                clock,
            } => {
                let names: Vec<String> = drivers.iter().map(|&p| proc_(p)).collect();
                format!(
                    "signal {} is written by {} processes ({}) clocked by the same {} edge — \
                     same-delta write-after-write race",
                    sig(*signal),
                    drivers.len(),
                    names.join(", "),
                    sig(*clock)
                )
            }
            StructuralFinding::MissingSensitivity { process, signal } => format!(
                "combinational process {} reads {} but does not wake on it — \
                 simulation holds stale outputs that synthesized hardware would update",
                proc_(*process),
                sig(*signal)
            ),
            StructuralFinding::ClockNotInSensitivity { process, clock } => format!(
                "clocked process {} declares clock {} but is not sensitive to it — \
                 the process can never run",
                proc_(*process),
                sig(*clock)
            ),
            StructuralFinding::UnreadSensitivity { process, signal } => format!(
                "process {} wakes on {} but never reads it (spurious wake-ups)",
                proc_(*process),
                sig(*signal)
            ),
            StructuralFinding::DeadSignal { signal } => format!(
                "signal {} is written but never read, sensed, traced or exported — dead logic",
                sig(*signal)
            ),
            StructuralFinding::UndrivenSignal { signal, reader } => format!(
                "signal {} is read by {} but has no driver and is not an external input — \
                 it stays U/X forever",
                sig(*signal),
                proc_(*reader)
            ),
            StructuralFinding::GatedBusyFeedback {
                clock,
                busy,
                origin,
            } => format!(
                "gated clock {}: busy line {} combinationally depends on {}, which is \
                 registered in the gated domain itself — once parked, nothing can restart the clock",
                sig(*clock),
                sig(*busy),
                sig(*origin)
            ),
            StructuralFinding::GatedBusyUndriven { clock, busy } => format!(
                "gated clock {}: busy line {} has no driver — the clock parks at \
                 elaboration and never starts",
                sig(*clock),
                sig(*busy)
            ),
        }
    }

    /// A dotted location path for a finding (`rtl.sig[name]` /
    /// `rtl.proc[label]`), matching the lint crate's location convention.
    #[must_use]
    pub fn location(&self, finding: &StructuralFinding) -> String {
        match finding {
            StructuralFinding::CombinationalLoop { cycle } => cycle.first().map_or_else(
                || "rtl".to_string(),
                |s| {
                    format!(
                        "rtl.proc[{}]",
                        self.processes[s.process.0].label(s.process.0)
                    )
                },
            ),
            StructuralFinding::MultiDriverConflict { signal, .. }
            | StructuralFinding::SameEdgeWriteRace { signal, .. }
            | StructuralFinding::DeadSignal { signal }
            | StructuralFinding::UndrivenSignal { signal, .. } => {
                format!("rtl.sig[{}]", self.signals[signal.index()].name)
            }
            StructuralFinding::MissingSensitivity { process, .. }
            | StructuralFinding::ClockNotInSensitivity { process, .. }
            | StructuralFinding::UnreadSensitivity { process, .. } => {
                format!("rtl.proc[{}]", self.processes[process.0].label(process.0))
            }
            StructuralFinding::GatedBusyFeedback { clock, .. }
            | StructuralFinding::GatedBusyUndriven { clock, .. } => {
                format!("rtl.clock[{}]", self.signals[clock.index()].name)
            }
        }
    }

    /// Error-severity findings formatted as strings — the subset
    /// `Coupling::preflight` enforces for RTL-backed couplings.
    #[must_use]
    pub fn error_findings(&self) -> Vec<String> {
        self.analyze()
            .iter()
            .filter(|f| f.severity() == StructuralSeverity::Error)
            .map(|f| format!("{}: {}", self.location(f), self.describe(f)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Logic;
    use crate::sim::{RtlCtx, RtlProcess, Simulator};

    /// A test process that declares arbitrary io and, when run, copies its
    /// first read to all writes (enough to exercise the kernel if needed).
    struct Decl {
        io: ProcessIo,
    }
    impl RtlProcess for Decl {
        fn run(&mut self, ctx: &mut RtlCtx) {
            if let (Some(&src), true) = (self.io.reads.first(), !self.io.writes.is_empty()) {
                let v = ctx.read_bit(src);
                for &w in &self.io.writes.clone() {
                    ctx.assign_bit(w, v);
                }
            }
        }
        fn io(&self) -> Option<ProcessIo> {
            Some(self.io.clone())
        }
    }

    fn comb(sim: &mut Simulator, name: &str, reads: &[SignalId], writes: &[SignalId]) -> ProcId {
        let io = ProcessIo::combinational(name)
            .reads(reads.iter().copied())
            .writes(writes.iter().copied());
        sim.add_process(Box::new(Decl { io }), reads)
    }

    fn clocked(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        reads: &[SignalId],
        writes: &[SignalId],
    ) -> ProcId {
        let io = ProcessIo::clocked(name, clk)
            .reads(reads.iter().copied())
            .writes(writes.iter().copied());
        sim.add_process_rising(Box::new(Decl { io }), &[clk], &[])
    }

    #[test]
    fn clean_pipeline_has_no_findings() {
        // in -> comb a -> t1 -> comb b -> t2 -> reg (clocked) -> out.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", castanet_netsim::time::SimDuration::from_ns(10));
        let input = sim.add_signal("in", 1);
        let t1 = sim.add_signal("t1", 1);
        let t2 = sim.add_signal("t2", 1);
        let out = sim.add_signal("out", 1);
        sim.mark_external_input(input);
        sim.mark_external_output(out);
        comb(&mut sim, "a", &[input], &[t1]);
        comb(&mut sim, "b", &[t1], &[t2]);
        clocked(&mut sim, "reg", clk, &[clk, t2], &[out]);
        let net = sim.netlist();
        let findings = net.analyze();
        assert!(findings.is_empty(), "clean netlist flagged: {findings:?}");
        // Domain tag: `out` is registered on clk.
        assert_eq!(net.domain(out), Some(clk));
    }

    #[test]
    fn combinational_loop_detected_with_full_path() {
        // a -> p -> b -> q -> a : two-process zero-delay cycle.
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        comb(&mut sim, "p", &[a], &[b]);
        comb(&mut sim, "q", &[b], &[a]);
        let net = sim.netlist();
        let loops = net.combinational_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), 2, "both processes on the path");
        let findings = net.analyze();
        assert!(findings
            .iter()
            .any(|f| matches!(f, StructuralFinding::CombinationalLoop { .. })));
        // The break-the-loop near miss: register one stage instead.
        let mut sim2 = Simulator::new();
        let clk = sim2.add_clock("clk", castanet_netsim::time::SimDuration::from_ns(10));
        let a2 = sim2.add_signal("a", 1);
        let b2 = sim2.add_signal("b", 1);
        comb(&mut sim2, "p", &[a2], &[b2]);
        clocked(&mut sim2, "q", clk, &[clk, b2], &[a2]);
        sim2.mark_external_input(a2); // also clocked-driven; keeps b2 read
        sim2.mark_external_output(b2);
        let net2 = sim2.netlist();
        assert!(net2.combinational_loops().is_empty());
    }

    #[test]
    fn self_loop_detected() {
        let mut sim = Simulator::new();
        let y = sim.add_signal("y", 1);
        comb(&mut sim, "osc", &[y], &[y]);
        let net = sim.netlist();
        let loops = net.combinational_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), 1);
        assert_eq!(loops[0][0].via, y);
    }

    #[test]
    fn multi_driver_and_same_edge_race() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", castanet_netsim::time::SimDuration::from_ns(10));
        let a = sim.add_signal("a", 1);
        let bus = sim.add_signal("bus", 1);
        let reg = sim.add_signal("reg", 1);
        sim.mark_external_input(a);
        sim.mark_external_output(bus);
        sim.mark_external_output(reg);
        comb(&mut sim, "d1", &[a], &[bus]);
        comb(&mut sim, "d2", &[a], &[bus]);
        clocked(&mut sim, "r1", clk, &[clk, a], &[reg]);
        clocked(&mut sim, "r2", clk, &[clk, a], &[reg]);
        let net = sim.netlist();
        let findings = net.analyze();
        assert!(findings.iter().any(
            |f| matches!(f, StructuralFinding::MultiDriverConflict { signal, drivers } if *signal == bus && drivers.len() == 2)
        ));
        assert!(findings.iter().any(
            |f| matches!(f, StructuralFinding::SameEdgeWriteRace { signal, clock, .. } if *signal == reg && *clock == clk)
        ));
    }

    #[test]
    fn two_clock_drivers_on_different_clocks_are_not_a_race() {
        let mut sim = Simulator::new();
        let clk_a = sim.add_clock("clk_a", castanet_netsim::time::SimDuration::from_ns(10));
        let clk_b = sim.add_clock("clk_b", castanet_netsim::time::SimDuration::from_ns(14));
        let a = sim.add_signal("a", 1);
        let reg = sim.add_signal("reg", 1);
        sim.mark_external_input(a);
        sim.mark_external_output(reg);
        clocked(&mut sim, "r1", clk_a, &[clk_a, a], &[reg]);
        clocked(&mut sim, "r2", clk_b, &[clk_b, a], &[reg]);
        let net = sim.netlist();
        assert!(!net
            .analyze()
            .iter()
            .any(|f| matches!(f, StructuralFinding::SameEdgeWriteRace { .. })));
        assert_eq!(net.domain(reg), None, "two domains -> no single tag");
    }

    #[test]
    fn missing_sensitivity_flagged_and_exact_list_clean() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        let y = sim.add_signal("y", 1);
        sim.mark_external_input(a);
        sim.mark_external_input(b);
        sim.mark_external_output(y);
        // Reads a and b but only wakes on a.
        let io = ProcessIo::combinational("and2").reads([a, b]).writes([y]);
        sim.add_process(Box::new(Decl { io }), &[a]);
        let net = sim.netlist();
        let findings = net.analyze();
        assert!(findings.iter().any(
            |f| matches!(f, StructuralFinding::MissingSensitivity { signal, .. } if *signal == b)
        ));
        // Near miss: full list is clean.
        let mut sim2 = Simulator::new();
        let a2 = sim2.add_signal("a", 1);
        let b2 = sim2.add_signal("b", 1);
        let y2 = sim2.add_signal("y", 1);
        sim2.mark_external_input(a2);
        sim2.mark_external_input(b2);
        sim2.mark_external_output(y2);
        comb(&mut sim2, "and2", &[a2, b2], &[y2]);
        assert!(sim2.netlist().analyze().is_empty());
    }

    #[test]
    fn clock_not_in_sensitivity_flagged() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", castanet_netsim::time::SimDuration::from_ns(10));
        let d = sim.add_signal("d", 1);
        let q = sim.add_signal("q", 1);
        sim.mark_external_input(d);
        sim.mark_external_output(q);
        // Clocked on clk but registered sensitive to d only.
        let io = ProcessIo::clocked("bad_reg", clk)
            .reads([clk, d])
            .writes([q]);
        sim.add_process(Box::new(Decl { io }), &[d]);
        let net = sim.netlist();
        assert!(net.analyze().iter().any(
            |f| matches!(f, StructuralFinding::ClockNotInSensitivity { clock, .. } if *clock == clk)
        ));
    }

    #[test]
    fn unread_sensitivity_is_info() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let noise = sim.add_signal("noise", 1);
        let y = sim.add_signal("y", 1);
        sim.mark_external_input(a);
        sim.mark_external_input(noise);
        sim.mark_external_output(y);
        let io = ProcessIo::combinational("inv").reads([a]).writes([y]);
        sim.add_process(Box::new(Decl { io }), &[a, noise]);
        let net = sim.netlist();
        let findings = net.analyze();
        let f = findings
            .iter()
            .find(|f| matches!(f, StructuralFinding::UnreadSensitivity { signal, .. } if *signal == noise))
            .expect("unread sensitivity finding");
        assert_eq!(f.severity(), StructuralSeverity::Info);
    }

    #[test]
    fn dead_and_undriven_signals() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let dead = sim.add_signal("dead", 1);
        let ghost = sim.add_signal("ghost", 1);
        let y = sim.add_signal("y", 1);
        sim.mark_external_input(a);
        sim.mark_external_output(y);
        comb(&mut sim, "p", &[a], &[dead]); // dead: written, never read
        comb(&mut sim, "q", &[ghost], &[y]); // ghost: read, never driven
        let net = sim.netlist();
        let findings = net.analyze();
        assert!(findings
            .iter()
            .any(|f| matches!(f, StructuralFinding::DeadSignal { signal } if *signal == dead)));
        assert!(findings.iter().any(
            |f| matches!(f, StructuralFinding::UndrivenSignal { signal, .. } if *signal == ghost)
        ));
        // Near misses: tracing the dead signal / marking ghost external.
        sim.trace(dead);
        sim.mark_external_input(ghost);
        let findings = sim.netlist().analyze();
        assert!(!findings
            .iter()
            .any(|f| matches!(f, StructuralFinding::DeadSignal { .. })));
        assert!(!findings
            .iter()
            .any(|f| matches!(f, StructuralFinding::UndrivenSignal { .. })));
    }

    #[test]
    fn gated_busy_feedback_and_undriven() {
        use castanet_netsim::time::SimDuration;
        // Feedback: busy is combinationally derived from a signal
        // registered in the gated domain.
        let mut sim = Simulator::new();
        let busy = sim.add_signal("busy", 1);
        let clk = sim.add_gated_clock("clk", SimDuration::from_ns(10), busy);
        let state = sim.add_signal("state", 1);
        clocked(&mut sim, "fsm", clk, &[clk], &[state]);
        comb(&mut sim, "busy_logic", &[state], &[busy]);
        let net = sim.netlist();
        let findings = net.analyze();
        assert!(findings.iter().any(
            |f| matches!(f, StructuralFinding::GatedBusyFeedback { origin, .. } if *origin == state)
        ));

        // Near miss: busy written directly by a clocked process (the
        // stock CycleDutProcess pattern) is safe.
        let mut sim2 = Simulator::new();
        let busy2 = sim2.add_signal("busy", 1);
        let clk2 = sim2.add_gated_clock("clk", SimDuration::from_ns(10), busy2);
        clocked(&mut sim2, "wrapper", clk2, &[clk2], &[busy2]);
        assert!(!sim2
            .netlist()
            .analyze()
            .iter()
            .any(|f| matches!(f, StructuralFinding::GatedBusyFeedback { .. })));

        // Undriven: nothing drives busy at all.
        let mut sim3 = Simulator::new();
        let busy3 = sim3.add_signal("busy", 1);
        let _clk3 = sim3.add_gated_clock("clk", SimDuration::from_ns(10), busy3);
        assert!(sim3
            .netlist()
            .analyze()
            .iter()
            .any(|f| matches!(f, StructuralFinding::GatedBusyUndriven { .. })));
        // Near miss: external busy (test-bench driven) is fine.
        let mut sim4 = Simulator::new();
        let busy4 = sim4.add_signal("busy", 1);
        let _clk4 = sim4.add_gated_clock("clk", SimDuration::from_ns(10), busy4);
        sim4.mark_external_input(busy4);
        assert!(!sim4
            .netlist()
            .analyze()
            .iter()
            .any(|f| matches!(f, StructuralFinding::GatedBusyUndriven { .. })));
    }

    #[test]
    fn opaque_processes_are_skipped() {
        struct Opaque;
        impl RtlProcess for Opaque {
            fn run(&mut self, _ctx: &mut RtlCtx) {}
        }
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.add_process(Box::new(Opaque), &[a]);
        let net = sim.netlist();
        assert!(net.analyze().is_empty(), "no guessing about opaque reads");
        assert_eq!(net.processes.iter().filter(|p| p.is_opaque()).count(), 1);
    }

    #[test]
    fn describe_resolves_names() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("sig_a", 1);
        let b = sim.add_signal("sig_b", 1);
        comb(&mut sim, "proc_p", &[a], &[b]);
        comb(&mut sim, "proc_q", &[b], &[a]);
        let net = sim.netlist();
        let findings = net.analyze();
        let loop_f = findings
            .iter()
            .find(|f| matches!(f, StructuralFinding::CombinationalLoop { .. }))
            .unwrap();
        let text = net.describe(loop_f);
        assert!(text.contains("proc_p") && text.contains("proc_q"), "{text}");
        assert!(text.contains("sig_a") || text.contains("sig_b"), "{text}");
        assert!(net.location(loop_f).starts_with("rtl.proc["));
    }

    #[test]
    fn error_findings_subset() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let dead = sim.add_signal("dead", 1);
        let osc = sim.add_signal("osc", 1);
        sim.mark_external_input(a);
        comb(&mut sim, "p", &[a], &[dead]); // warning only
        comb(&mut sim, "q", &[osc], &[osc]); // self-loop: error
        let net = sim.netlist();
        let errors = net.error_findings();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("combinational loop"), "{errors:?}");
    }

    #[test]
    fn level_order_evaluation_matches_event_kernel() {
        use castanet_netsim::time::SimTime;
        // A two-stage xor cone evaluated by the kernel must agree with a
        // hand evaluation in dataflow order.
        struct Xor2 {
            a: SignalId,
            b: SignalId,
            y: SignalId,
        }
        impl RtlProcess for Xor2 {
            fn run(&mut self, ctx: &mut RtlCtx) {
                let v = match (ctx.read_bit(self.a), ctx.read_bit(self.b)) {
                    (Logic::One, Logic::Zero) | (Logic::Zero, Logic::One) => Logic::One,
                    (Logic::Zero, Logic::Zero) | (Logic::One, Logic::One) => Logic::Zero,
                    _ => Logic::X,
                };
                ctx.assign_bit(self.y, v);
            }
            fn io(&self) -> Option<ProcessIo> {
                Some(
                    ProcessIo::combinational("xor2")
                        .reads([self.a, self.b])
                        .writes([self.y]),
                )
            }
        }
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        let c = sim.add_signal("c", 1);
        let t1 = sim.add_signal("t1", 1);
        let t2 = sim.add_signal("t2", 1);
        for s in [a, b, c] {
            sim.mark_external_input(s);
        }
        sim.mark_external_output(t2);
        sim.add_process(Box::new(Xor2 { a, b, y: t1 }), &[a, b]);
        sim.add_process(Box::new(Xor2 { a: t1, b: c, y: t2 }), &[t1, c]);
        let net = sim.netlist();
        assert!(net.analyze().is_empty());
        sim.poke_bit(a, Logic::One, SimTime::ZERO).unwrap();
        sim.poke_bit(b, Logic::Zero, SimTime::ZERO).unwrap();
        sim.poke_bit(c, Logic::One, SimTime::ZERO).unwrap();
        sim.run_to_quiescence().unwrap();
        // dataflow order: t1 = a^b = 1, t2 = t1^c = 0.
        assert_eq!(sim.read_bit(t2), Logic::Zero);
    }
}
