"""Hypothesis-generated well-typed MiniJ programs exercised through the
whole pipeline: parse → typecheck → codegen → run (± tracking) →
format → reparse.

The generator emits structured programs over int locals with nested
if/for control flow.  Every example terminates quickly: loops count to
a bound of at most 6, and every assignment is reduced modulo
:data:`MODULUS`.  MiniJ ints are unbounded, so without that reduction
``v0 = v0 * v0`` inside two nested loops squares a value 36 times and
never finishes; with it every variable stays below ``MODULUS`` in
magnitude and each expression's operands stay small.  The only
division-like operator is ``%`` by that non-zero constant, so no
example raises a runtime arithmetic error.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang import compile_source, format_source
from repro.profiler import CostTracker
from repro.vm import VM

N_VARS = 3

#: Every assignment is reduced modulo this prime (see module docstring).
MODULUS = 1000003


@st.composite
def statements(draw, depth):
    """A list of statements over variables v0..v{N_VARS-1}."""
    count = draw(st.integers(1, 3 if depth else 5))
    result = []
    for _ in range(count):
        result.append(draw(statement(depth)))
    return result


@st.composite
def int_expr(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(st.integers(-30, 30)))
        return f"v{draw(st.integers(0, N_VARS - 1))}"
    op = draw(st.sampled_from(["+", "-", "*"]))
    return (f"({draw(int_expr(depth + 1))} {op} "
            f"{draw(int_expr(depth + 1))})")


@st.composite
def bool_expr(draw):
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    return f"{draw(int_expr(1))} {op} {draw(int_expr(1))}"


@st.composite
def statement(draw, depth):
    kind = draw(st.sampled_from(
        ["assign", "assign", "assign", "if", "loop"]
        if depth < 2 else ["assign"]))
    if kind == "assign":
        target = draw(st.integers(0, N_VARS - 1))
        return f"v{target} = ({draw(int_expr())}) % {MODULUS};"
    if kind == "if":
        then_body = "\n".join(draw(statements(depth + 1)))
        if draw(st.booleans()):
            else_body = "\n".join(draw(statements(depth + 1)))
            return (f"if ({draw(bool_expr())}) {{ {then_body} }} "
                    f"else {{ {else_body} }}")
        return f"if ({draw(bool_expr())}) {{ {then_body} }}"
    # Bounded counting loop: always terminates.
    bound = draw(st.integers(1, 6))
    body = "\n".join(draw(statements(depth + 1)))
    counter = f"k{draw(st.integers(0, 9999))}"
    return (f"for (int {counter} = 0; {counter} < {bound}; "
            f"{counter}++) {{ {body} }}")


@st.composite
def program_source(draw):
    decls = "\n".join(f"int v{i} = {draw(st.integers(-10, 10))};"
                      for i in range(N_VARS))
    body = "\n".join(draw(statements(0)))
    prints = "\n".join(
        f'Sys.printInt(v{i}); Sys.print(" ");'
        for i in range(N_VARS))
    return (f"class Main {{ static void main() {{\n{decls}\n{body}\n"
            f"{prints}\n}} }}")


#: The worst case of the unreduced generator: a squaring inside two
#: nested loops of the largest bound (36 squarings of v0).
NESTED_SQUARING = (
    "class Main { static void main() {\n"
    "int v0 = 10;\nint v1 = -3;\nint v2 = 7;\n"
    "for (int k0 = 0; k0 < 6; k0++) { "
    "for (int k1 = 0; k1 < 6; k1++) { "
    f"v0 = ((v0 * v0)) % {MODULUS}; }} }}\n"
    + "\n".join(f'Sys.printInt(v{i}); Sys.print(" ");'
                for i in range(N_VARS))
    + "\n} }")


def run(source, tracer=None):
    vm = VM(compile_source(source), tracer=tracer,
            max_steps=5_000_000)
    vm.run()
    return vm


@given(program_source())
@example(NESTED_SQUARING)
@settings(max_examples=25, deadline=None)
def test_pipeline_consistency(source):
    """Output is deterministic, unaffected by tracking, and preserved
    by the formatter round trip."""
    plain = run(source)
    tracker = CostTracker(slots=8)
    tracked = run(source, tracer=tracker)
    assert plain.stdout() == tracked.stdout()
    assert plain.instr_count == tracked.instr_count
    formatted = format_source(source)
    assert run(formatted).stdout() == plain.stdout()
    # Graph sanity on arbitrary control flow.
    graph = tracker.graph
    assert graph.total_frequency() <= tracked.instr_count
    assert all(f >= 1 for f in graph.freq)


@given(program_source())
@settings(max_examples=10, deadline=None)
def test_dead_value_metrics_bounded(source):
    from repro.analyses import measure_bloat
    tracker = CostTracker(slots=8)
    vm = run(source, tracer=tracker)
    metrics = measure_bloat(tracker.graph, vm.instr_count)
    assert 0 <= metrics.ipd <= 1
    assert 0 <= metrics.ipp <= 1
    assert metrics.ipd + metrics.ipp <= 1 + 1e-9
