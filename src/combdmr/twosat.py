"""2-CNF instances and the implication-graph solver of every 2-SAT question.

Literals are non-zero ints in DIMACS style: ``v`` stands for x_v and ``-v``
for its negation.  Clauses are pairs of literals; unit constraints are
written as a literal repeated, so builders never need a special case.
:func:`solve_implications` decides satisfiability by Kosaraju's algorithm
over successor bitmasks of the implication graph.  :func:`solve` builds
those masks from a clause instance; the k = 2 decider reads them off a
distance matrix.  The model extracted from the component order is
deterministic: for a fixed graph the same assignment always comes back.
A variable whose positive literal no arc enters lies on no cycle and comes
out false, so the search visits only the other variables' literals, rooted
in the order a search of every literal would use.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_

from .matrix import _bits, _Value

Clause = tuple[int, int]
Assignment = tuple[bool, ...]


class TwoSatInstance(_Value):
    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause:
                if not 1 <= abs(lit) <= self.variable_count:
                    raise ValueError(f"literal {lit} over undeclared variable")


def solve_implications(out: list[int]) -> Assignment | None:
    """A model of a 2-CNF formula given by its implication graph, or None.

    Node v - 1 is the literal -v and node len(out) // 2 + v - 1 is v; bit u
    of ``out[w]`` is the edge w -> u.  Such a graph is skew-symmetric
    (w -> u iff -u -> -w), so Kosaraju's reverse pass reads the predecessors
    of w as the negations of the successors of -w and stores none.

    Only live variables, those whose positive literal some arc enters, are
    searched (the components decide a 2-CNF: Aspvall, Plass and Tarjan,
    1979).  A dead x_v is a source and -x_v a sink, so x_v comes out false.
    Where the first pass would root at a dead x_v, it roots at each live
    successor of x_v instead, lowest unvisited first: the order x_v's own
    search enters them.  So the live literals finish, and the components
    and the model come out, as in a search over every literal.
    """
    size = len(out)
    half = size // 2
    low = (1 << half) - 1
    live = reduce(or_, out, 0) >> half
    unvisited = nodes = live | live << half

    def search(root, successors):
        # The unvisited nodes a search from root reaches, in finishing order.
        nonlocal unvisited
        unvisited ^= 1 << root
        stack, done = [root], []
        while stack:
            nxt = successors(stack[-1]) & unvisited
            if nxt:
                bit = nxt & -nxt
                unvisited ^= bit
                stack.append(bit.bit_length() - 1)
            else:
                done.append(stack.pop())
        return done

    def predecessors(w: int) -> int:
        mask = out[(w + half) % size]
        return mask >> half | (mask & low) << half

    # Roots go by variable: -v then v, or the live successors of a dead x_v.
    # The model, and so every graph the deciders write, depends on this order.
    # A variable that is dead and has no successor roots nothing (under
    # skew-symmetry x_v is live iff -x_v has a successor), and once every
    # live literal is visited no later root finds any.
    finished = []
    for v in compress(range(half), map(or_, out[:half], out[half:])):
        if not unvisited:
            break
        roots = 1 << v | 1 << half + v if live >> v & 1 else out[half + v]
        while nxt := roots & unvisited:
            finished += search((nxt & -nxt).bit_length() - 1, out.__getitem__)
    # The reverse searches find the components sources first; x_v is true
    # when the component of -x_v came earlier.
    unvisited = nodes
    seen = true = 0
    for root in reversed(finished):
        if unvisited >> root & 1:
            component = sum(1 << w for w in search(root, predecessors))
            if component & component >> half:
                return None
            true |= component >> half & seen
            seen |= component
    model = [False] * half
    for v in _bits(true):
        model[v] = True
    return tuple(model)


def solve(inst: TwoSatInstance) -> Assignment | None:
    """A satisfying assignment, or None when the instance is unsatisfiable."""
    v = inst.variable_count

    def node(lit: int) -> int:
        return abs(lit) - 1 + (v if lit > 0 else 0)

    out = [0] * (2 * v)
    for a, b in inst.clauses:
        out[node(-a)] |= 1 << node(b)
        out[node(-b)] |= 1 << node(a)
    return solve_implications(out)


def check(inst: TwoSatInstance, assignment: Assignment) -> bool:
    """True iff every clause has a true literal under the assignment."""
    if len(assignment) != inst.variable_count:
        raise ValueError("assignment length does not match variable count")

    def truth(lit: int) -> bool:
        return assignment[abs(lit) - 1] == (lit > 0)

    return all(truth(a) or truth(b) for a, b in inst.clauses)


def dimacs(inst: TwoSatInstance) -> str:
    """DIMACS CNF dump for cross-checking with external solvers."""
    lines = [f"p cnf {inst.variable_count} {len(inst.clauses)}"]
    lines.extend(f"{a} {b} 0" for a, b in inst.clauses)
    return "\n".join(lines) + "\n"
