import pytest

from mutkill import interp as I
from mutkill import lts as L
from mutkill import parser as P
from mutkill import solver as S
from mutkill import terms as T

import conftest as C
from test_divergence import divergent_states
from test_interp import observed, reference


INLINED_TWICE = """input x: int in [-2, 2];

fn helper(a) {
  var t = a - x;
  if (t > 0) {
  } else {
    output a / t;
  }
}

fn nothing() {
}

fn main() {
  call helper(x);
  call helper(x + 1);
  call nothing();
  output x;
}
"""


def lower(text: str, **kw) -> L.Lts:
    return L.lower_to_lts(P.parse_text(text), **kw)


class TestLowering:
    def test_straight_line(self):
        lts = lower("input x: int in [0,1];\nfn main() { output x; }")
        assert len(lts.locations) == 2
        assert len(lts.moves) == 1
        assert lts.info(1).kind == "output"
        assert lts.info(2).kind == "terminal"

    def test_if_has_complementary_guards(self):
        lts = lower("input x: int in [-4,3];\n"
                    "fn main() { if (x < 0) { output 0; } else { output 1; } }")
        branch = lts.move(1)
        assert branch == L.Branch(T.Cmp("<", T.Var("x"), T.Lit(0)), 2, 3)
        # the else arm is taken where the guard fails
        g1, g2 = branch.guard, T.negate(branch.guard)
        assert not S.is_satisfiable(T.conj([g1, g2]), lts.inputs).is_sat

    def test_golden_port_has_12_locations(self):
        lts = C.load_lts("fig1")
        assert len(lts.locations) == 12
        assert len(lts.terminals) == 1

    def test_var_decl_without_initializer_is_free(self):
        lts = lower("input x: int in [0,1];\nfn main() { var y; output x; }")
        assert len(lts.locations) == 2

    def test_var_decl_with_initializer_is_a_statement(self):
        lts = lower("input x: int in [0,1];\n"
                    "fn main() { var y = x + 1; output y; }")
        assert len(lts.locations) == 3
        assert lts.info(1).kind == "assign"

    def test_while_back_edge(self):
        lts = lower("input n: int in [0,3];\n"
                    "fn main() { while (n > 0) { n = n - 1; } output n; }")
        # loop head 1, body 2, output 3, terminal 4; body returns to head
        assert lts.move(2).dst == 1
        assert L.targets(lts.move(1)) == (2, 3)

    def test_call_inlining(self):
        lts = C.load_lts("callfn")
        # inlined parameter binding locations carry the call kind
        kinds = [lts.info(loc).kind for loc in lts.locations]
        assert kinds.count("call") == 2

    def test_locals_empty_blocks_and_empty_callees_lower(self):
        # a callee's `var`, an empty then-block and a callee with an empty
        # body, the callee inlined twice
        lts = lower(INLINED_TWICE)
        C.validate_lts(lts)
        assert {"helper@1.t", "helper@2.t"} <= set(lts.variables)
        assert [lts.info(loc).kind for loc in lts.locations].count("call") == 3
        for test in I.all_inputs(lts):
            traced = I.run_lts(lts, test, record_states=True)
            assert observed(traced) == reference(lts, test), test
        assert divergent_states(INLINED_TWICE) == []

    def test_inlining_depth_exceeded(self):
        src = ("input x: int in [0,1];\n"
               "fn loop(v) { call loop(v); }\n"
               "fn main() { call loop(x); }")
        with pytest.raises(L.InliningDepthExceeded):
            lower(src)
        with pytest.raises(L.InliningDepthExceeded):
            lower(src, inline_depth=2)

    def test_flat_sum_lowers(self):
        # the front end makes no recursive pass over a sum, so its length is
        # not bounded by the recursion limit
        text = "input x: int in [0,3];\nfn main() { output %s; }" % " + ".join(["x"] * 600)
        (_, step), = L.lower_text(text).moves
        assert C.eval_int(step.emit, {"x": 2}) == 1200


class TestValidator:
    @pytest.mark.parametrize("name", C.ALL_PROGRAMS)
    def test_corpus_lts_valid(self, name):
        C.validate_lts(C.load_lts(name))

    def test_detects_unreachable(self):
        lts = C.load_lts("abs")
        broken = lts.replace(
            locations=lts.locations + (99,),
            loc_info=lts.loc_info + ((99, L.LocInfo("assign", (0, 0))),))
        with pytest.raises(C.LtsInvariantError, match="unreachable"):
            C.validate_lts(broken)

    def test_detects_overlapping_guards(self):
        # one location listed with two moves
        lts = C.load_lts("abs")
        loc, move = lts.moves[0]
        broken = lts.replace(moves=lts.moves + ((loc, move),))
        with pytest.raises(C.LtsInvariantError, match="more than one move"):
            C.validate_lts(broken)

    def test_detects_a_missing_or_mismatched_move(self):
        lts = C.load_lts("abs")
        (loc, branch), = [(loc, m) for loc, m in lts.moves if isinstance(m, L.Branch)]
        # the then arm's output location, left without a move
        without = lts.replace(moves=tuple(p for p in lts.moves if p[0] != branch.then))
        with pytest.raises(C.LtsInvariantError, match="non-terminal"):
            C.validate_lts(without)
        stepping = lts.replace(moves=tuple((at, L.Step((), None, branch.then) if at == loc else m)
                                           for at, m in lts.moves))
        with pytest.raises(C.LtsInvariantError, match="of kind branch moves as a Step"):
            C.validate_lts(stepping)


class TestDistance:
    def test_terminal_distance_zero(self):
        lts = C.load_lts("abs")
        dist = L.distance_to_output(lts)
        for t in lts.terminals:
            assert dist[t] == 0

    def test_linear_chain(self):
        lts = lower("input x: int in [0,1];\n"
                    "fn main() { var a = x; var b = a; output b; }")
        dist = L.distance_to_output(lts)
        assert dist[lts.entry] == 3

    def test_golden_loop_head_distance(self):
        lts = C.load_lts("fig1")
        dist = L.distance_to_output(lts)
        # oracle: breadth-first over the hand-checkable graph; the loop head
        # exits via the branch at 9 and one output statement
        assert dist[4] == 3

    @pytest.mark.parametrize("name", C.ALL_PROGRAMS)
    def test_bellman_condition(self, name):
        lts = C.load_lts(name)
        dist = L.distance_to_output(lts)
        for loc in lts.locations:
            if loc in lts.terminals:
                continue
            succ = [dist[dst] for dst in L.targets(lts.move(loc))]
            finite = [d for d in succ if d is not None]
            if dist[loc] is None:
                assert not finite
            else:
                assert dist[loc] == 1 + min(finite)
