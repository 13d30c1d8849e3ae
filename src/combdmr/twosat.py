"""2-CNF instances and a linear-time implication-graph solver.

Literals are non-zero ints in DIMACS style: ``v`` stands for x_v and ``-v``
for its negation.  Clauses are pairs of literals; unit constraints are
written as a literal repeated, so builders never need a special case.
Satisfiability is decided via strongly connected components of the
implication graph, and the model extracted from the component order is
deterministic: for a fixed clause list the same assignment always comes
back, and variables that are not constrained at all come out false.
"""

from __future__ import annotations

from dataclasses import dataclass

Clause = tuple[int, int]
Assignment = tuple[bool, ...]


@dataclass(frozen=True)
class TwoSatInstance:
    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause:
                if not 1 <= abs(lit) <= self.variable_count:
                    raise ValueError(f"literal {lit} over undeclared variable")


def _node(lit: int) -> int:
    # Negation at the even index: unconstrained variables then resolve false.
    return 2 * abs(lit) - (2 if lit < 0 else 1)


def _tarjan_components(adj: list[list[int]]) -> list[int]:
    """Component ids in reverse topological order (sinks numbered first)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, start = work[-1]
            if start == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            neighbours = adj[v]
            for i in range(start, len(neighbours)):
                w = neighbours[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comp_count
                    if w == v:
                        break
                comp_count += 1
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comp


def solve(inst: TwoSatInstance) -> Assignment | None:
    """A satisfying assignment, or None when the instance is unsatisfiable."""
    v = inst.variable_count
    adj: list[list[int]] = [[] for _ in range(2 * v)]
    for a, b in inst.clauses:
        adj[_node(a) ^ 1].append(_node(b))
        adj[_node(b) ^ 1].append(_node(a))
    comp = _tarjan_components(adj)
    for i in range(v):
        if comp[2 * i] == comp[2 * i + 1]:
            return None
    # A literal is true when its component precedes its negation's.
    return tuple(comp[2 * i + 1] < comp[2 * i] for i in range(v))


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
