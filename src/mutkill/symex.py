"""Forking breadth-first symbolic execution over a meta-mutant.

The engine explores states in lock step by depth, each state on its own
mutant's program (`MetaMutant.program`).  Original states fork
a mutant copy on first arrival at each targeted mutation point; the mutant
copy is expanded right after the original, takes the mutated transition and
must pass an infection check (its state provably differs from one of the
original's successors) to stay alive.
Post-fork branching locations are counted against the checkpoint window;
at checkpoints a configurable proportion of branches is kept and pruned
branches may emit early tests from the prefix-difference constraint.  At
terminal locations the full kill constraint (output disequality) is solved.
A location's division errors are split off once, from the terms that it
evaluates (see `lts`), each where evaluation reaches its divisor.

Three modes share the machinery: `semu` (all of the above), `infection-only`
(solve the state-difference constraint right at the mutation point and drop
the mutant), and `vanilla` (ignore mutants; one test per terminal path).
"""

from __future__ import annotations

import functools
import math
import random
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import solver as S
from . import terms as T
from .interp import _check_domains, run_lts
from .lts import GuardedCommand, Lts, Transition, distance_to_output
from .mutation import MetaMutant
from .record import Record
from .terms import BoolTerm, Cmp, IntTerm, Lit, Var

FOLLOW = "follow"
RELEASE = "release"
PRUNE = "prune"

SITE_CHECKPOINT = "checkpoint"
SITE_TERMINAL = "terminal"


class DepthMismatch(Exception):
    pass


class Config(Record):
    _defaults = {
        "pl": "GMD2MS",  # GMD2MS | SMD2MS
        "cw": 0,
        "pp": 0.25,
        "pss": "RND",  # RND | MDO
        "mpd": 2,
        "nsd": False,
        "ntpm": 5,
        "mode": "semu",  # semu | infection-only | vanilla
        "budget_seconds": 60.0,
        "max_states": None,
        "max_depth": 200,
        "rng_seed": 0,
        "use_precondition": True,
    }
    __slots__ = tuple(_defaults)  # every field has a default

    def __init__(self, *args, **named):
        super().__init__(*args, **named)
        if self.pl not in ("GMD2MS", "SMD2MS"):
            raise ValueError(f"bad PL {self.pl!r}")
        if self.pss not in ("RND", "MDO"):
            raise ValueError(f"bad PSS {self.pss!r}")
        if not 0.0 <= self.pp <= 1.0:
            raise ValueError(f"PP outside [0,1]: {self.pp}")
        if self.cw < 0 or self.mpd < 0 or self.ntpm < 1:
            raise ValueError("bad heuristic parameter")
        if self.mode not in ("semu", "infection-only", "vanilla"):
            raise ValueError(f"bad mode {self.mode!r}")
        if not self.budget_seconds >= 0:  # also rejects NaN
            raise ValueError(f"BUDGET_SECONDS must be >= 0: {self.budget_seconds}")
        if self.max_states is not None and self.max_states < 0:
            raise ValueError(f"MAX_STATES must be >= 0: {self.max_states}")
        if self.max_depth < 0:
            raise ValueError(f"MAX_DEPTH must be >= 0: {self.max_depth}")


class SymbolicState(Record):
    """`path` is over the input symbols; `store` binds every program
    variable, in name order; `out` is the symbolic output trace so far;
    `mut_id` 0 is the original.  `trail` holds the taken-transition
    indices, for prefix pairing, and its length is the state's `depth`;
    `branch_count` the post-fork branching locations traversed.  In semu
    mode a mutant state is kept or pruned at every checkpoint that it
    reaches, so a live one has passed `branch_count // (CW + 1)`
    checkpoints.
    In seeded mode, `compatible_seeds` holds the indices of the seeds whose
    runs the state follows; it is empty once released, or when not
    following seeds.  `forked` holds the mutant IDs already forked on this
    path; `status` is live | terminal | error."""

    # kept in the instance's `__dict__`, which `replace` copies in bulk
    _fields = ("path", "store", "out", "loc", "mut_id", "trail",
               "fork_trail", "branch_count", "compatible_seeds", "forked", "status")
    _defaults = {"trail": (), "fork_trail": None, "branch_count": 0,
                 "compatible_seeds": (), "forked": frozenset(), "status": "live"}

    @property
    def depth(self) -> int:
        """The number of transitions taken: the prefix length."""
        return len(self.trail)

    def store_map(self) -> Dict[str, IntTerm]:
        return dict(self.store)


class GeneratedTest(Record):
    # site: checkpoint | terminal; k: the prefix length at generation
    __slots__ = ("inputs", "mutant_id", "site", "k")

    def valuation(self) -> Dict[str, int]:
        return dict(self.inputs)


class ExplorationStats:
    """The engine's work counts; `checkpoint_events` holds (mutant id,
    location, depth) per checkpoint hit, for tests."""

    def __init__(self) -> None:
        self.states_created = 0
        self.pruned_infeasible = 0
        self.pruned_noninfected = 0
        self.pruned_pp = 0
        self.pruned_seed = 0
        self.solver_calls = 0
        self.tests_per_mutant: Dict[int, int] = {}
        self.wall_clock = 0.0
        self.checkpoint_events: List[Tuple[int, int, int]] = []

    def as_text(self) -> str:
        per = ";".join(f"{m}:{n}" for m, n in sorted(self.tests_per_mutant.items()))
        rows = [
            f"states_created={self.states_created}",
            f"pruned_infeasible={self.pruned_infeasible}",
            f"pruned_noninfected={self.pruned_noninfected}",
            f"pruned_pp={self.pruned_pp}",
            f"pruned_seed={self.pruned_seed}",
            f"solver_calls={self.solver_calls}",
            f"tests_per_mutant={per}",
            f"wall_clock={self.wall_clock:.3f}",
        ]
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Constraint builders
# ---------------------------------------------------------------------------


def _store_diff(a: SymbolicState, b: SymbolicState) -> BoolTerm:
    am, bm = a.store_map(), b.store_map()
    clauses = [Cmp("!=", am[v], bm[v]) for v in sorted(set(am) & set(bm))
               if am[v] != bm[v]]
    return T.disj(clauses)


def _out_diff(a: SymbolicState, b: SymbolicState) -> BoolTerm:
    if a.status != b.status and "live" not in (a.status, b.status):
        return T.TRUE  # error versus normal exit is observably different
    return S.tuple_disequality(a.out, b.out)


def state_difference(a: SymbolicState, b: SymbolicState) -> BoolTerm:
    """sigma_a != sigma_b: store, emitted output, or control location."""
    if a.loc != b.loc:
        return T.TRUE
    return T.disj([_store_diff(a, b), _out_diff(a, b)])


def build_partial_kill(original: SymbolicState, mutant: SymbolicState,
                       cfg: Config) -> BoolTerm:
    """phiP and phiM and (state difference), at equal prefix length.
    With NSD the difference clause is dropped."""
    if original.depth != mutant.depth:
        raise DepthMismatch(f"{original.depth} != {mutant.depth}")
    parts = [original.path, mutant.path]
    if not cfg.nsd:
        parts.append(state_difference(original, mutant))
    return T.conj(parts)


def build_kill(original: SymbolicState, mutant: SymbolicState) -> BoolTerm:
    """Full kill at terminals: output disequality only."""
    return T.conj([original.path, mutant.path, _out_diff(original, mutant)])


# ---------------------------------------------------------------------------
# Heuristic primitives (exposed for direct testing)
# ---------------------------------------------------------------------------


def is_checkpoint(mutant_state: SymbolicState, cfg: Config) -> bool:
    """True when the state's count of post-fork branching locations lands on
    the checkpoint grid: CW non-checkpoint branching statements between two
    consecutive checkpoints."""
    if mutant_state.branch_count <= 0:
        return False
    return mutant_state.branch_count % (cfg.cw + 1) == 0


def select_branches(candidates: Sequence[SymbolicState], cfg: Config,
                    dist: Dict[int, Optional[int]], rng: random.Random):
    """Keep max(1, floor(PP*n)) of the candidate successor states.
    RND draws uniformly; MDO keeps minimal distance-to-output, ties broken
    by lower location ID.  Returns (kept, pruned) in candidate order."""
    n = len(candidates)
    if n == 0:
        return [], []
    k = max(1, math.floor(cfg.pp * n))
    if k >= n:
        return list(candidates), []
    if cfg.pss == "MDO":
        order = sorted(range(n), key=lambda i: (
            dist.get(candidates[i].loc) if dist.get(candidates[i].loc) is not None
            else math.inf,
            candidates[i].loc, i))
        keep_idx = set(order[:k])
    else:
        keep_idx = set(rng.sample(range(n), k))
    kept = [candidates[i] for i in range(n) if i in keep_idx]
    pruned = [candidates[i] for i in range(n) if i not in keep_idx]
    return kept, pruned


def apply_precondition(state: SymbolicState, seeds: Sequence[Dict[str, int]],
                       cfg: Config, release_depth: Optional[int],
                       mutation_points: Set[int],
                       added: Optional[Sequence[BoolTerm]] = None
                       ) -> Tuple[str, Tuple[int, ...]]:
    """Seeded-mode decision for a state that follows its parent's compatible
    seeds, with the seeds it follows next: release once the precondition
    length is reached, follow while some compatible seed satisfies the prefix
    condition (the membership condition for retained prefixes), prune
    otherwise.  Paths only grow, so a seed that the parent's path excluded
    cannot satisfy the child's, and one that it kept satisfies the child's
    where it satisfies the conjuncts `added` to it by the step (by default,
    the whole path is checked)."""
    if cfg.pl == "GMD2MS":
        if release_depth is not None and state.depth >= release_depth:
            return RELEASE, ()
    else:  # SMD2MS: this path reached a mutated statement
        if state.loc in mutation_points:
            return RELEASE, ()
    checked = (state.path,) if added is None else added
    compat = tuple(j for j in state.compatible_seeds
                   if all(T.holds(c, seeds[j]) for c in checked))
    return (FOLLOW if compat else PRUNE), compat


Sat = Callable[[BoolTerm], S.SolverResult]  # a satisfiability query


def pair_states(mutant_state: SymbolicState,
                originals_at_depth: Sequence[SymbolicState],
                sat: Sat) -> Optional[SymbolicState]:
    """First original (frontier order) sharing the mutant's pre-fork prefix
    with jointly satisfiable path conditions."""
    prefix = mutant_state.fork_trail or ()
    for o in originals_at_depth:
        if o.mut_id != 0 or o.trail[: len(prefix)] != prefix:
            continue
        if sat(T.conj([o.path, mutant_state.path])).is_sat:
            return o
    return None


# ---------------------------------------------------------------------------
# The symbolic step
# ---------------------------------------------------------------------------


def initial_state(lts: Lts, mut_id: int = 0) -> SymbolicState:
    """The entry state: inputs symbolic, every other program variable 0."""
    dom = dict(lts.inputs)
    store = tuple((v, Var(v) if v in dom else Lit(0)) for v in sorted(lts.variables))
    return SymbolicState(path=T.TRUE, store=store, out=(), loc=lts.entry, mut_id=mut_id)


@functools.cache
def _may_be_zero(d: IntTerm) -> bool:
    """Whether the divisor `d` gets an error branch: all but one whose
    normal form is a nonzero literal and whose own term does not divide.
    That one can never be zero, so it adds no error state and nothing to
    the path; its `d == 0` would cost a solver call that is always unsat."""
    n = T.normalize_int(d)
    return not isinstance(n, Lit) or n.value == 0 or T.has_division(d)


def _take(s: SymbolicState, i: int, transition: Transition):
    """Taking `transition`, the i-th transition out of the location of `s`
    in the program of the state's mutant: the transition's label (guard,
    update, emit) with the store substituted but not normalized, so that
    its divisors are the ones a concrete run evaluates, and the
    successor's changed fields.  Whether the guard can hold is the
    solver's question."""
    _, gc, dst = transition
    store = s.store_map()
    guard = T.subst(gc.guard, store)
    update = tuple((name, T.subst(term, store)) for name, term in gc.update)
    emit = T.subst(gc.emit, store) if gc.emit is not None else None
    for name, term in update:
        store[name] = T.normalize_int(term)
    fields = {
        # the guard as taken, left out when it is the literal `true`
        "path": T.conj([s.path] + ([] if guard is T.TRUE else [guard])),
        "store": tuple(sorted(store.items())) if update else s.store,
        "out": s.out + (T.normalize_int(emit),) if emit is not None else s.out,
        "loc": dst, "trail": s.trail + (i,),
    }
    return (guard, update, emit), fields


def step(s: SymbolicState, i: int, transition: Transition
         ) -> Tuple[SymbolicState, GuardedCommand]:
    """The successor of `s` along `transition`, the i-th transition out of
    its location in the program of the state's mutant, together with the
    transition's label with the store substituted but not normalized, so
    that its divisors are the ones a concrete run evaluates.  A successor
    whose path is unsatisfiable is returned like any other."""
    label, fields = _take(s, i, transition)
    return s.replace(**fields), GuardedCommand(*label)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, meta: MetaMutant, targets: Set[int],
                 seeds: Sequence[Dict[str, int]], cfg: Config):
        self.meta = meta
        # static facts (terminals, branches, inputs, distances) are the same
        # in every mutant's program: mutants never move a transition's ends
        self.base = meta.base
        self.targets = set(targets)
        self.seeds = list(seeds)
        for seed in self.seeds:  # as the matrix replays them
            _check_domains(self.base, seed)
        self.cfg = cfg
        self.rng = random.Random(cfg.rng_seed)
        self.dist = distance_to_output(self.base)
        self.stats = ExplorationStats()
        self.tests: List[GeneratedTest] = []
        self.seen_models: Dict[int, Set[Tuple[Tuple[str, int], ...]]] = {}
        self.finished_orig: List[SymbolicState] = []
        self.finished_mut: List[SymbolicState] = []
        self.deadline = time.monotonic() + cfg.budget_seconds
        self.points = {
            loc for loc, mids in meta.mutation_points.items()
            if self.targets & set(mids)
        }
        self.branch_locs = {
            loc for loc in self.base.locations
            if self.base.info(loc).kind == "branch"
        }
        self.release_depth = self._gmd2ms_depth() if cfg.pl == "GMD2MS" else None

    # -- helpers -----------------------------------------------------------

    def sat(self, c: BoolTerm) -> S.SolverResult:
        self.stats.solver_calls += 1
        return S.is_satisfiable(c, self.base.inputs)

    def budget_left(self) -> bool:
        if time.monotonic() > self.deadline:
            return False
        if self.cfg.max_states is not None and \
                self.stats.states_created >= self.cfg.max_states:
            return False
        return True

    def _gmd2ms_depth(self) -> Optional[int]:
        """Smallest seed-execution prefix length reaching a targeted
        mutation point."""
        if not self.seeds or not self.points:
            return None
        best = None
        for seed in self.seeds:
            # the original program has the meta-mutant's locations
            tr = run_lts(self.meta.program(0), seed, record_states=True)
            for i, (_, loc) in enumerate(tr.states):
                if loc in self.points:
                    best = i if best is None else min(best, i)
                    break
        return best

    def record_test(self, mutant_id: int, model: Dict[str, int], site: str,
                    k: int) -> bool:
        # a constraint may not mention every input: the others take their
        # low bound
        full = {name: lo for name, (lo, _) in self.base.inputs}
        full.update(model)
        key = tuple(sorted(full.items()))
        seen = self.seen_models.setdefault(mutant_id, set())
        if key in seen or mutant_id != 0 and len(seen) >= self.cfg.ntpm:
            return False
        seen.add(key)
        self.tests.append(GeneratedTest(key, mutant_id, site, k))
        return True

    def quota_left(self, mutant_id: int) -> bool:
        return len(self.seen_models.get(mutant_id, ())) < self.cfg.ntpm

    def finish(self, s: SymbolicState) -> None:
        (self.finished_orig if s.mut_id == 0 else self.finished_mut).append(s)

    # -- state construction ------------------------------------------------

    def expand(self, s: SymbolicState) -> List[SymbolicState]:
        """Successors of one live state; seed-incompatible branches pruned,
        division-by-zero branches finished as errors.  The solver alone
        decides feasibility: an error path it finds unsat adds no state, and
        an unsat successor counts in `pruned_infeasible`.  The divisors of
        the first transition's terms split off error paths `path ∧ earlier
        nonzero ∧ reach ∧ d == 0`, once per normal form and reach, and each
        arm adds every divisor's `¬reach ∨ d != 0`."""
        branching = s.loc in self.branch_locs
        taken = [_take(s, i, transition) for i, transition
                 in enumerate(self.meta.program(s.mut_id).successors[s.loc])]
        (guard, update, emit), fields = taken[0]
        evaluated = [guard, *(term for _, term in update)] + ([emit] if emit is not None else [])
        nonzero: List[BoolTerm] = []
        queried: Set[tuple] = set()
        for d, reach in (dr for term in evaluated for dr in T.reached_divisors(term)
                         if _may_be_zero(dr[0])):
            key = (T.normalize_int(d), reach)
            if key not in queried:
                queried.add(key)
                err_pc = T.conj([s.path, *nonzero, *reach, Cmp("==", d, Lit(0))])
                if self.sat(err_pc).is_sat:
                    self.stats.states_created += 1
                    self.finish(s.replace(path=err_pc, trail=fields["trail"], status="error"))
            nonzero.append(T.disj([*map(T.negate, reach), Cmp("!=", d, Lit(0))]))
        results: List[SymbolicState] = []
        for (guard, _, _), fields in taken:
            # the conjuncts this step adds to the parent's path
            added = nonzero if fields["path"] is s.path else [guard, *nonzero]
            fields["path"] = T.conj([fields["path"], *nonzero])
            if branching and s.mut_id:
                fields["branch_count"] = s.branch_count + 1
            nxt = s.replace(**fields)
            # seeded mode: release / follow / prune
            if nxt.compatible_seeds:
                verdict, compat = apply_precondition(nxt, self.seeds, self.cfg,
                                                     self.release_depth, self.points, added)
                if verdict == PRUNE:
                    self.stats.pruned_seed += 1
                    continue
                nxt = nxt.replace(compatible_seeds=compat)
            # a state that a seed satisfies is feasible
            if not nxt.compatible_seeds:
                res = self.sat(nxt.path)
                if not res.is_sat:
                    self.stats.pruned_infeasible += 1
                    continue
            self.stats.states_created += 1
            results.append(nxt)
        return results

    def fork(self, s: SymbolicState) -> List[SymbolicState]:
        """Mutant copies of an original state for the targeted mutants at
        its location, first arrival per path only."""
        if s.mut_id or self.cfg.mode == "vanilla":
            return []
        mids = [m for m in self.meta.mutation_points.get(s.loc, ())
                if m in self.targets and m not in s.forked]
        self.stats.states_created += len(mids)
        return [s.replace(mut_id=m, fork_trail=s.trail, branch_count=0, compatible_seeds=())
                for m in mids]

    def infected(self, kids: List[SymbolicState],
                 originals: Sequence[SymbolicState]) -> List[SymbolicState]:
        """A fork's successors that can differ from one of the original's
        successors, error states included (all of them when the original
        has none); the first such original's model witnesses the infection.
        In infection-only mode the witness is the mutant's test and no
        successor stays."""
        live = []
        for k in kids:
            witness = next((res for res in (
                self.sat(T.conj([k.path, o.path, state_difference(k, o)]))
                for o in originals) if res.is_sat), None)
            if witness is None and originals:
                self.stats.pruned_noninfected += 1
            elif self.cfg.mode != "infection-only":
                live.append(k)
            elif witness is not None:
                self.record_test(k.mut_id, witness.model, SITE_CHECKPOINT, k.depth)
        return live

    # -- test generation ---------------------------------------------------

    def try_early_test(self, pruned: SymbolicState,
                       originals: Sequence[SymbolicState]) -> None:
        if not self.quota_left(pruned.mut_id):
            return
        # the checkpoints it has passed, the one it is pruned at included
        if pruned.branch_count // (self.cfg.cw + 1) < self.cfg.mpd:
            return
        paired = pair_states(pruned, originals, self.sat)
        if paired is None:
            return
        c = build_partial_kill(paired, pruned, self.cfg)
        res = self.sat(c)
        if res.is_sat:
            self.record_test(pruned.mut_id, res.model, SITE_CHECKPOINT, pruned.depth)

    def terminal_kill_phase(self) -> None:
        by_mutant: Dict[int, List[SymbolicState]] = {}
        for st in self.finished_mut:
            by_mutant.setdefault(st.mut_id, []).append(st)
        for m in sorted(by_mutant):
            for st in by_mutant[m]:
                if not self.quota_left(m):
                    break
                prefix = st.fork_trail or ()
                for o in self.finished_orig:
                    if o.trail[: len(prefix)] != prefix:
                        continue
                    res = self.sat(build_kill(o, st))
                    if res.is_sat:
                        self.record_test(m, res.model, SITE_TERMINAL, st.depth)
                        break

    def vanilla_tests(self) -> None:
        for o in self.finished_orig:
            res = self.sat(o.path)
            if res.is_sat:
                self.record_test(0, res.model, SITE_TERMINAL, o.depth)

    # -- main loop ---------------------------------------------------------

    def run(self) -> Tuple[List[GeneratedTest], ExplorationStats]:
        start = time.monotonic()
        if self.cfg.max_states == 0:
            self.stats.wall_clock = time.monotonic() - start
            return [], self.stats
        self.stats.states_created += 1
        followed = range(len(self.seeds)) if self.cfg.use_precondition else ()
        frontier: List[SymbolicState] = [
            initial_state(self.base).replace(compatible_seeds=tuple(followed))]
        while frontier and self.budget_left():
            if frontier[0].depth >= self.cfg.max_depth:
                break
            frontier = self.level(frontier)
        if self.cfg.mode == "vanilla":
            self.vanilla_tests()
        elif self.cfg.mode == "semu":
            self.terminal_kill_phase()
        self.stats.tests_per_mutant = {m: len(seen) for m, seen in self.seen_models.items()}
        self.stats.wall_clock = time.monotonic() - start
        return list(self.tests), self.stats

    def level(self, frontier: List[SymbolicState]) -> List[SymbolicState]:
        """The next frontier.  A fork is expanded right after its original
        and keeps its infected successors only."""
        successors: List[SymbolicState] = []
        # checkpoint candidates per (mutant, parent location): indices into
        # `successors`
        candidates: Dict[Tuple[int, int], List[int]] = {}

        def add(parent: SymbolicState, kids: List[SymbolicState]) -> None:
            for kid in kids:
                if kid.mut_id and parent.loc in self.branch_locs \
                        and is_checkpoint(kid, self.cfg):
                    candidates.setdefault((kid.mut_id, parent.loc), []) \
                        .append(len(successors))
                successors.append(kid)

        for s in frontier:
            if s.loc in self.base.terminals:
                self.finish(s.replace(status="terminal"))
                continue
            if not self.budget_left():
                continue
            forks = self.fork(s)
            if forks:
                s = s.replace(forked=s.forked | {f.mut_id for f in forks})
            before = len(self.finished_orig)
            kids = self.expand(s)
            add(s, kids)
            # the original's successors include the error states it just
            # finished: a fork that does not error where it does is infected
            originals = kids + self.finished_orig[before:]
            for f in forks:
                if self.budget_left():
                    add(f, self.infected(self.expand(f), originals))
        if self.cfg.mode == "semu":
            return self._apply_checkpoints(successors, candidates)
        return successors

    def _apply_checkpoints(self, successors: List[SymbolicState],
                           candidates: Dict[Tuple[int, int], List[int]]
                           ) -> List[SymbolicState]:
        """Keep PP of each checkpoint's branches, as they are: a kept state
        has passed the checkpoint by its branch count.  A pruned branch is
        dropped and may leave an early test."""
        originals = [x for x in successors if x.mut_id == 0]
        dropped: Set[int] = set()
        for (m, loc), idxs in sorted(candidates.items()):
            cands = [successors[i] for i in idxs]
            self.stats.checkpoint_events.append((m, loc, cands[0].depth))
            _, pruned = select_branches(cands, self.cfg, self.dist, self.rng)
            for c in pruned:
                self.stats.pruned_pp += 1
                self.try_early_test(c, originals)
                dropped.add(id(c))
        return [x for x in successors if id(x) not in dropped]


def explore(meta: MetaMutant, targets: Iterable[int], seeds: Sequence[Dict[str, int]],
            cfg: Config) -> Tuple[List[GeneratedTest], ExplorationStats]:
    """Run the engine; the solver decides over the program's declared input
    domains.  Budget exhaustion returns partial results; solver failures
    propagate as SolverFailure."""
    return _Engine(meta, set(targets), seeds, cfg).run()
