"""Compiled execution tier: per-method template-compiled dispatch.

The interpreter in :mod:`repro.vm.interpreter` pays a fixed toll per
executed instruction: fetch through ``frame.pc``, an opcode ladder, and
operand-name lookups on the instruction object.  This module removes
that toll by compiling every finalized method into a specialized Python
generator function, once per program:

* **operand accessors precompiled** -- in the untraced template every
  virtual register becomes a Python local; in the traced template the
  register file stays the interpreter's ``frame.regs`` dict so tracer
  hooks observe the exact interpreter frame protocol,
* **constants folded** -- instruction fields (operator, field name,
  literal value, branch targets, resolved call targets, class objects,
  natives) are baked into the generated source or bound once in the
  module namespace,
* **tracker calls fused per opcode** -- the traced template binds each
  opcode's hook to one local (``CostTracker._instr_dispatch`` handlers
  when the tracker exposes them, the public ``trace_*`` protocol
  otherwise) guarded by a single hoisted ``traced`` flag,
* the untraced template contains **zero tracking branches**: no
  ``traced`` flag, no hook calls, nothing to predict.

Control flow is compiled to basic blocks dispatched by a small integer
``_L`` inside one ``while True`` loop; calls suspend the generator with
a ``yield`` carrying ``(target, callee_frame, count, limit)`` and a
trampoline driver (:func:`run_compiled`) maintains the activation
stack, so deep MiniJ recursion never consumes Python stack frames.

The instruction budget, telemetry growth samples, and sampling-window
toggles all share the interpreter's single ``count > limit`` checkpoint
(see :class:`repro.vm.interpreter.RunControl`), so the compiled tier
preserves the interpreter's exact ``instr_count``, phase-window, and
fault-containment semantics: a ``VMError`` leaves ``instr_count``
current and phases closed, and the tracker's graph-so-far remains a
salvageable partial profile.

Burst sampling (``VM(sampling=...)``) selects the template *per
activation*: calls spawned while the tracking window is off run the
untraced template at full speed; calls spawned inside a window (and the
entry activation) run the traced template, whose hoisted flag follows
the window toggles.  The driver maintains the receiver-context chain
across untraced activations so tracked windows keep the paper's
context-annotated node identities.

Methods whose shapes the templates do not cover (no return instruction,
execution falling off the end of the body, unknown operators) mark the
whole program unsupported and the VM transparently falls back to the
interpreter tier.
"""

from __future__ import annotations

from ..ir import instructions as ins
from .errors import (VMArithmeticError, VMBoundsError, VMError, VMNullError)
from .frames import Frame
from .interpreter import (RunControl, _as_str, _is_ref, _java_div, _java_rem,
                          _string_hash)
from .natives import lookup_native

VARIANT_PLAIN = "plain"
VARIANT_TRACED = "traced"

#: rt.hooks index for ``trace_call_complete`` (past the opcode range).
HOOK_CALL_COMPLETE = ins.OP_INTRINSIC + 1

#: Opcodes whose interpreter hook is ``trace_instr`` (fusable through
#: ``CostTracker._instr_dispatch``).
_INSTR_HOOK_OPS = (ins.OP_CONST, ins.OP_MOVE, ins.OP_BINOP, ins.OP_UNOP,
                   ins.OP_INTRINSIC, ins.OP_BRANCH, ins.OP_ARRAY_LEN,
                   ins.OP_LOAD_STATIC, ins.OP_STORE_STATIC)


class UnsupportedShape(Exception):
    """A method the templates cannot compile; triggers interp fallback."""


class _Binder:
    """Assigns stable namespace names to runtime constants."""

    def __init__(self, ns):
        self.ns = ns
        self._names = {}

    def bind(self, obj, prefix: str) -> str:
        name = self._names.get(id(obj))
        if name is None:
            name = f"_{prefix}{len(self._names)}"
            self._names[id(obj)] = name
            self.ns[name] = obj
        return name


def _base_namespace() -> dict:
    return {
        "_F": Frame,
        "_VE": VMError,
        "_NE": VMNullError,
        "_BE": VMBoundsError,
        "_AE": VMArithmeticError,
        "_jd": _java_div,
        "_jr": _java_rem,
        "_sh": _string_hash,
        "_as": _as_str,
        "_ir": _is_ref,
        "_ln": lookup_native,
    }


# ---------------------------------------------------------------------------
# Method template emission
# ---------------------------------------------------------------------------

class _MethodEmitter:
    def __init__(self, method, fname: str, variant: str, binder: _Binder):
        self.method = method
        self.fname = fname
        self.traced = variant == VARIANT_TRACED
        self.binder = binder
        self.lines = []
        self._mangled = {}
        self._used_hooks = set()

    # -- small helpers ---------------------------------------------------

    def reg(self, name: str) -> str:
        """Accessor expression for virtual register ``name``."""
        if self.traced:
            return f"regs[{name!r}]"
        mangled = self._mangled.get(name)
        if mangled is None:
            mangled = self._mangled[name] = f"r{len(self._mangled)}"
        return mangled

    def iname(self, instr) -> str:
        return self.binder.bind(instr, "i")

    def emit(self, depth: int, text: str):
        self.lines.append("    " * depth + text)

    def check(self, d: int, instr):
        """The fused budget / telemetry / sampling checkpoint."""
        self.emit(d, "count += 1")
        tail = "; traced = _tr()" if self.traced else ""
        self.emit(d, f"if count > limit: "
                     f"limit = _fire(count, {self.iname(instr)}, frame){tail}")

    def hook(self, d: int, instr, args: str = ""):
        if not self.traced:
            return
        op = instr.op
        self._used_hooks.add(op)
        self.emit(d, f"if traced: _hk{op}({self.iname(instr)}, frame{args})")

    # -- emission --------------------------------------------------------

    def source(self) -> str:
        body = self.method.body
        if not body:
            raise UnsupportedShape(
                f"{self.method.qualified_name}: empty body")
        if not any(i.op == ins.OP_RETURN for i in body):
            raise UnsupportedShape(
                f"{self.method.qualified_name}: no return instruction")

        leaders = {0}
        for instr in body:
            if instr.op == ins.OP_BRANCH:
                leaders.add(instr.then_index)
                leaders.add(instr.else_index)
            elif instr.op == ins.OP_JUMP:
                leaders.add(instr.target_index)

        # Body first: discovers mangled registers and used hooks, both
        # needed by the prologue.
        self.lines = []
        self._emit_blocks(body, sorted(leaders))
        block_lines = self.lines

        self.lines = []
        self.emit(0, f"def {self.fname}(rt, frame, count, limit):")
        self._emit_prologue(body)
        self.emit(1, "try:")
        self.emit(2, "_L = 0")
        self.emit(2, "while True:")
        self.lines.extend(block_lines)
        self.emit(3, "else:")
        self.emit(4, "raise _VE('compiled dispatch lost', None, frame)")
        self.emit(1, "except _VE:")
        self.emit(2, "vm.instr_count = count")
        self.emit(2, "raise")
        return "\n".join(self.lines) + "\n"

    def _emit_prologue(self, body):
        self.emit(1, "vm = rt.vm")
        self.emit(1, "_fire = rt.fire")
        if self.traced:
            self.emit(1, "regs = frame.regs")
            self.emit(1, "_tr = rt.traced_now")
            self.emit(1, "traced = _tr()")
            self.emit(1, "_hooks = rt.hooks")
            for op in sorted(self._used_hooks):
                self.emit(1, f"_hk{op} = _hooks[{op}]")
        else:
            # Entry registers (receiver + parameters) become locals.
            entry_regs = []
            if not self.method.is_static:
                entry_regs.append("this")
            entry_regs.extend(name for name, _ in self.method.params)
            bound = [name for name in entry_regs if name in self._mangled]
            if bound:
                self.emit(1, "_rg = frame.regs")
                for name in bound:
                    self.emit(1, f"{self.reg(name)} = _rg[{name!r}]")

    def _emit_blocks(self, body, leaders):
        leader_set = set(leaders)
        for pos, leader in enumerate(leaders):
            kw = "if" if pos == 0 else "elif"
            self.emit(3, f"{kw} _L == {leader}:")
            i = leader
            terminated = False
            while i < len(body) and (i == leader or i not in leader_set):
                instr = body[i]
                terminated = self._emit_instr(4, instr)
                if terminated:
                    break
                i += 1
            if not terminated:
                if i >= len(body):
                    raise UnsupportedShape(
                        f"{self.method.qualified_name}: execution can fall "
                        f"off the end of the body")
                self.emit(4, f"_L = {i}")
                self.emit(4, "continue")

    def _emit_instr(self, d: int, instr) -> bool:
        """Emit one instruction; True if it terminates the block."""
        op = instr.op
        R = self.reg
        iname = self.iname(instr)
        self.check(d, instr)

        if op == ins.OP_CONST:
            self.emit(d, f"{R(instr.dest)} = {instr.value!r}")
            self.hook(d, instr)

        elif op == ins.OP_MOVE:
            self.emit(d, f"{R(instr.dest)} = {R(instr.src)}")
            self.hook(d, instr)

        elif op == ins.OP_BINOP:
            self._emit_binop(d, instr, iname)
            self.hook(d, instr)

        elif op == ins.OP_UNOP:
            expr = (f"-{R(instr.src)}" if instr.unop == ins.UN_NEG
                    else f"not {R(instr.src)}")
            self.emit(d, f"{R(instr.dest)} = {expr}")
            self.hook(d, instr)

        elif op == ins.OP_BRANCH:
            self.emit(d, f"_L = {instr.then_index} if {R(instr.cond)} "
                         f"else {instr.else_index}")
            self.hook(d, instr)
            self.emit(d, "continue")
            return True

        elif op == ins.OP_JUMP:
            self.emit(d, f"_L = {instr.target_index}")
            self.emit(d, "continue")
            return True

        elif op == ins.OP_LOAD_FIELD:
            self.emit(d, f"_o = {R(instr.obj)}")
            self.emit(d, f"if _o is None: raise _NE("
                         f"'null dereference reading .{instr.field}', "
                         f"{iname}, frame)")
            self.emit(d, f"{R(instr.dest)} = _o.fields[{instr.field!r}]")
            self.hook(d, instr, ", _o")

        elif op == ins.OP_STORE_FIELD:
            self.emit(d, f"_o = {R(instr.obj)}")
            self.emit(d, f"if _o is None: raise _NE("
                         f"'null dereference writing .{instr.field}', "
                         f"{iname}, frame)")
            self.emit(d, f"_v = {R(instr.src)}")
            self.emit(d, f"_o.fields[{instr.field!r}] = _v")
            self.hook(d, instr, ", _o, _v")

        elif op == ins.OP_ARRAY_LOAD:
            self.emit(d, f"_o = {R(instr.arr)}")
            self.emit(d, f"if _o is None: raise _NE('null array load', "
                         f"{iname}, frame)")
            self.emit(d, f"_x = {R(instr.idx)}")
            self.emit(d, "_e = _o.elems")
            self.emit(d, f"if _x < 0 or _x >= len(_e): raise _BE("
                         f"f'index {{_x}} out of bounds for length "
                         f"{{len(_e)}}', {iname}, frame)")
            self.emit(d, f"{R(instr.dest)} = _e[_x]")
            self.hook(d, instr, ", _o, _x")

        elif op == ins.OP_ARRAY_STORE:
            self.emit(d, f"_o = {R(instr.arr)}")
            self.emit(d, f"if _o is None: raise _NE('null array store', "
                         f"{iname}, frame)")
            self.emit(d, f"_x = {R(instr.idx)}")
            self.emit(d, "_e = _o.elems")
            self.emit(d, f"if _x < 0 or _x >= len(_e): raise _BE("
                         f"f'index {{_x}} out of bounds for length "
                         f"{{len(_e)}}', {iname}, frame)")
            self.emit(d, f"_v = {R(instr.src)}")
            self.emit(d, "_e[_x] = _v")
            self.hook(d, instr, ", _o, _x, _v")

        elif op == ins.OP_ARRAY_LEN:
            self.emit(d, f"_o = {R(instr.arr)}")
            self.emit(d, f"if _o is None: raise _NE('null array length', "
                         f"{iname}, frame)")
            self.emit(d, f"{R(instr.dest)} = len(_o.elems)")
            self.hook(d, instr)

        elif op == ins.OP_NEW_OBJECT:
            cls = self.binder.ns["_program"].classes[instr.class_name]
            cname = self.binder.bind(cls, "c")
            self.emit(d, f"_o = vm.heap.new_object({cname}, {instr.iid})")
            self.emit(d, f"{R(instr.dest)} = _o")
            self.hook(d, instr, ", _o")

        elif op == ins.OP_NEW_ARRAY:
            tname = self.binder.bind(instr.elem_type, "t")
            self.emit(d, f"_n = {R(instr.size)}")
            self.emit(d, f"if _n < 0: raise _BE(f'negative array size "
                         f"{{_n}}', {iname}, frame)")
            self.emit(d, f"_o = vm.heap.new_array({tname}, {instr.iid}, _n)")
            self.emit(d, f"{R(instr.dest)} = _o")
            self.hook(d, instr, ", _o")

        elif op == ins.OP_LOAD_STATIC:
            self.emit(d, f"{R(instr.dest)} = vm._static_slot("
                         f"{instr.class_name!r}, {instr.field!r})")
            self.hook(d, instr)

        elif op == ins.OP_STORE_STATIC:
            self.emit(d, f"vm._set_static_slot({instr.class_name!r}, "
                         f"{instr.field!r}, {R(instr.src)})")
            self.hook(d, instr)

        elif op == ins.OP_INTRINSIC:
            self._emit_intrinsic(d, instr, iname)
            self.hook(d, instr)

        elif op == ins.OP_CALL:
            self._emit_call(d, instr, iname)

        elif op == ins.OP_CALL_NATIVE:
            self._emit_native(d, instr, iname)

        elif op == ins.OP_RETURN:
            self.hook(d, instr)
            value = R(instr.src) if instr.src is not None else "None"
            self.emit(d, f"yield (None, {value}, count, limit)")
            self.emit(d, "return")
            return True

        else:
            raise UnsupportedShape(
                f"{self.method.qualified_name}: unknown opcode {op}")
        return False

    def _emit_binop(self, d: int, instr, iname: str):
        R = self.reg
        dest, a, b = R(instr.dest), R(instr.lhs), R(instr.rhs)
        op = instr.binop
        if op in ("+", "-", "*", "<", "<=", ">", ">="):
            self.emit(d, f"{dest} = {a} {op} {b}")
        elif op == "==":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a is _b) if (_ir(_a) or _ir(_b)) "
                         f"else (_a == _b)")
        elif op == "!=":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a is not _b) if (_ir(_a) or _ir(_b)) "
                         f"else (_a != _b)")
        elif op == "/":
            self.emit(d, f"_b = {b}")
            self.emit(d, f"if _b == 0: raise _AE('division by zero', "
                         f"{iname}, frame)")
            self.emit(d, f"{dest} = _jd({a}, _b)")
        elif op == "%":
            self.emit(d, f"_b = {b}")
            self.emit(d, f"if _b == 0: raise _AE('modulo by zero', "
                         f"{iname}, frame)")
            self.emit(d, f"{dest} = _jr({a}, _b)")
        elif op == ins.BIN_CONCAT:
            self.emit(d, f"{dest} = _as({a}) + _as({b})")
        elif op == "&":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a and _b) if isinstance(_a, bool) "
                         f"else (_a & _b)")
        elif op == "|":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a or _b) if isinstance(_a, bool) "
                         f"else (_a | _b)")
        elif op == "^":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a != _b) if isinstance(_a, bool) "
                         f"else (_a ^ _b)")
        elif op == "<<":
            self.emit(d, f"{dest} = {a} << ({b} & 31)")
        elif op == ">>":
            self.emit(d, f"{dest} = {a} >> ({b} & 31)")
        else:
            raise UnsupportedShape(
                f"{self.method.qualified_name}: unknown binop {op!r}")

    def _emit_intrinsic(self, d: int, instr, iname: str):
        R = self.reg
        dest = R(instr.dest)
        args = instr.args
        intr = instr.intr
        if intr == ins.INTR_SLEN:
            self.emit(d, f"_s = {R(args[0])}")
            self.emit(d, f"if _s is None: raise _NE('length() on null "
                         f"string', {iname}, frame)")
            self.emit(d, f"{dest} = len(_s)")
        elif intr == ins.INTR_SCHARAT:
            self.emit(d, f"_s = {R(args[0])}")
            self.emit(d, f"if _s is None: raise _NE('charAt() on null "
                         f"string', {iname}, frame)")
            self.emit(d, f"_x = {R(args[1])}")
            self.emit(d, f"if _x < 0 or _x >= len(_s): raise _BE("
                         f"f'charAt index {{_x}} out of bounds for length "
                         f"{{len(_s)}}', {iname}, frame)")
            self.emit(d, f"{dest} = ord(_s[_x])")
        elif intr == ins.INTR_SEQ:
            self.emit(d, f"{dest} = {R(args[0])} == {R(args[1])}")
        elif intr == ins.INTR_SHASH:
            self.emit(d, f"_s = {R(args[0])}")
            self.emit(d, f"if _s is None: raise _NE('hash() on null "
                         f"string', {iname}, frame)")
            self.emit(d, f"{dest} = _sh(_s)")
        elif intr == ins.INTR_ITOS:
            self.emit(d, f"{dest} = str({R(args[0])})")
        elif intr == ins.INTR_CHR:
            self.emit(d, f"{dest} = chr({R(args[0])} & 0x10FFFF)")
        elif intr == ins.INTR_SCMP:
            self.emit(d, f"_a = {R(args[0])}")
            self.emit(d, f"_b = {R(args[1])}")
            self.emit(d, f"if _a is None or _b is None: raise _NE("
                         f"'compare() on null string', {iname}, frame)")
            self.emit(d, f"{dest} = -1 if _a < _b else (1 if _a > _b else 0)")
        else:
            raise UnsupportedShape(
                f"{self.method.qualified_name}: unknown intrinsic {intr!r}")

    def _emit_call(self, d: int, instr, iname: str):
        R = self.reg
        if instr.kind == ins.CALL_VIRTUAL:
            self.emit(d, f"_r = {R(instr.recv)}")
            self.emit(d, f"if _r is None: raise _NE('null receiver calling "
                         f".{instr.method_name}()', {iname}, frame)")
            self.emit(d, f"_m = _r.cls.vtable.get({instr.method_name!r})")
            self.emit(d, f"if _m is None: raise _VE(f'no method "
                         f"{instr.method_name} on {{_r.cls.name}}', "
                         f"{iname}, frame)")
            self.emit(d, f"_cf = _F(_m, {instr.dest!r}, {iname})")
            self.emit(d, "_cr = _cf.regs")
            self.emit(d, "_cr['this'] = _r")
            if instr.args:
                argtuple = ", ".join(R(a) for a in instr.args)
                if len(instr.args) == 1:
                    argtuple += ","
                self.emit(d, f"for _pp, _av in zip(_m.params, ({argtuple})): "
                             f"_cr[_pp[0]] = _av")
            recv_expr = "_r"
            target_expr = "_m"
        else:
            target = instr.resolved
            mname = self.binder.bind(target, "m")
            recv_expr = "None"
            if instr.recv is not None:
                self.emit(d, f"_r = {R(instr.recv)}")
                self.emit(d, f"if _r is None: raise _NE('null receiver "
                             f"calling .{instr.method_name}()', "
                             f"{iname}, frame)")
                recv_expr = "_r"
            self.emit(d, f"_cf = _F({mname}, {instr.dest!r}, {iname})")
            self.emit(d, "_cr = _cf.regs")
            if instr.recv is not None:
                self.emit(d, "_cr['this'] = _r")
            for (pname, _), arg_reg in zip(target.params, instr.args):
                self.emit(d, f"_cr[{pname!r}] = {R(arg_reg)}")
            target_expr = mname
        if self.traced:
            self._used_hooks.add(ins.OP_CALL)
            self.emit(d, f"if traced: _hk{ins.OP_CALL}({iname}, frame, "
                         f"_cf, {recv_expr})")
        self.emit(d, f"_p = yield ({target_expr}, _cf, count, limit)")
        self.emit(d, "count = _p[1]")
        self.emit(d, "limit = _p[2]")
        if self.traced:
            # The driver refreshes the hoisted flag in the resume
            # message -- one expression evaluated trampoline-side
            # instead of a closure call per return.
            self.emit(d, "traced = _p[3]")
        if instr.dest is not None:
            self.emit(d, f"{R(instr.dest)} = _p[0]")
        if self.traced:
            self._used_hooks.add(HOOK_CALL_COMPLETE)
            self.emit(d, f"if traced: _hk{HOOK_CALL_COMPLETE}"
                         f"({iname}, frame)")

    def _emit_native(self, d: int, instr, iname: str):
        R = self.reg
        self.emit(d, "vm.instr_count = count")
        if instr.resolved_native is not None:
            nname = self.binder.bind(instr.resolved_native, "n")
            callee = nname
        else:
            callee = f"_ln({instr.native!r})"
        arglist = ", ".join(R(a) for a in instr.args)
        self.emit(d, f"_v = {callee}(vm, [{arglist}])")
        if instr.dest is not None:
            self.emit(d, f"{R(instr.dest)} = _v")
        # A native may move a sampling boundary (Sys.phase resets the
        # window cursor) and may toggle phase-restricted tracking.
        self.emit(d, "limit = rt.limit")
        if self.traced:
            self.emit(d, "traced = _tr()")
        self.hook(d, instr)


# ---------------------------------------------------------------------------
# Program compilation + caching
# ---------------------------------------------------------------------------

def compiled_tier(program, variant: str):
    """The ``{MethodDef: generator function}`` tier for ``variant``.

    Compiled lazily on first use and cached on the program; returns
    None when the program contains a shape the templates do not
    support (the VM then falls back to the interpreter).
    """
    cache = getattr(program, "_compiled_tiers", None)
    if cache is None:
        cache = program._compiled_tiers = {}
    if variant in cache:
        tier = cache[variant]
        return tier or None
    try:
        tier = _compile_program(program, variant)
    except UnsupportedShape:
        cache[variant] = False
        return None
    cache[variant] = tier
    return tier


def _compile_program(program, variant: str):
    ns = _base_namespace()
    ns["_program"] = program
    binder = _Binder(ns)
    fnames = {}
    sources = []
    for cls in sorted(program.classes.values(), key=lambda c: c.name):
        for method in sorted(cls.methods.values(), key=lambda m: m.name):
            fname = f"_fn{len(fnames)}"
            fnames[method] = fname
            emitter = _MethodEmitter(method, fname, variant, binder)
            sources.append(emitter.source())
    source = "\n".join(sources)
    code = compile(source, f"<repro-compiled:{variant}>", "exec")
    exec(code, ns)
    return {method: ns[fname] for method, fname in fnames.items()}


# ---------------------------------------------------------------------------
# Tracker hook fusion
# ---------------------------------------------------------------------------

def build_hooks(tracer):
    """Resolve the tracer's per-opcode hooks once per run.

    ``CostTracker`` exposes ``_instr_dispatch`` (opcode -> bound
    handler); fusing through it skips the ``trace_instr`` indirection.
    The fusion is only safe when ``trace_instr`` itself has not been
    overridden, so any tracer with custom ``trace_instr`` behaviour
    gets the public protocol unchanged.
    """
    hooks = [None] * (HOOK_CALL_COMPLETE + 1)
    dispatch = getattr(tracer, "_instr_dispatch", None)
    if dispatch is not None:
        try:
            from ..profiler.tracker import CostTracker
        except ImportError:  # pragma: no cover - profiler always present
            dispatch = None
        else:
            if not (isinstance(tracer, CostTracker) and
                    type(tracer).trace_instr is CostTracker.trace_instr):
                dispatch = None
    for op in _INSTR_HOOK_OPS:
        hooks[op] = dispatch[op] if dispatch is not None else tracer.trace_instr
    hooks[ins.OP_LOAD_FIELD] = tracer.trace_load_field
    hooks[ins.OP_STORE_FIELD] = tracer.trace_store_field
    hooks[ins.OP_ARRAY_LOAD] = tracer.trace_array_load
    hooks[ins.OP_ARRAY_STORE] = tracer.trace_array_store
    hooks[ins.OP_NEW_OBJECT] = tracer.trace_new_object
    hooks[ins.OP_NEW_ARRAY] = tracer.trace_new_array
    hooks[ins.OP_CALL] = tracer.trace_call
    hooks[ins.OP_RETURN] = tracer.trace_return
    hooks[ins.OP_CALL_NATIVE] = tracer.trace_native
    hooks[HOOK_CALL_COMPLETE] = tracer.trace_call_complete
    return hooks


# ---------------------------------------------------------------------------
# Trampoline driver
# ---------------------------------------------------------------------------

def run_compiled(vm) -> bool:
    """Execute ``vm``'s program on the compiled tier.

    Returns False (without executing anything) when the program has an
    unsupported shape, so :meth:`VM.run` can fall back to the
    interpreter loop.
    """
    program = vm.program
    tracer = vm.tracer
    need_traced = tracer is not None
    need_plain = tracer is None or (vm.sampling is not None)
    traced_fns = plain_fns = None
    if need_traced:
        traced_fns = compiled_tier(program, VARIANT_TRACED)
        if traced_fns is None:
            return False
    if need_plain:
        plain_fns = compiled_tier(program, VARIANT_PLAIN)
        if plain_fns is None:
            return False

    entry = program.entry
    frame = Frame(entry)
    frames = [frame]
    rt = RunControl(vm, frames)
    cursor = rt.cursor
    rt.tracer = tracer
    if tracer is not None:
        rt.hooks = build_hooks(tracer)
        if cursor is None:
            rt.traced_now = lambda: tracer.enabled
        else:
            rt.traced_now = lambda: tracer.enabled and cursor.on
        if tracer.enabled:
            tracer.on_entry_frame(frame)

    count = vm.instr_count
    limit = rt.initial(count)
    sampling_calls = tracer is not None and cursor is not None
    if sampling_calls:
        from ..profiler.context import extend_context
        ctx_slots = getattr(tracer, "slots", 0)
    # The entry activation always runs the traced template when a
    # tracer is attached: the tracking windows toggle its hoisted flag,
    # and long-lived frames (main) would otherwise never be tracked.
    fns = traced_fns if tracer is not None else plain_fns
    gens = [(fns[entry](rt, frame, count, limit), tracer is not None)]
    msg = None
    telemetry = vm.telemetry
    try:
        try:
            while gens:
                gen, gen_traced = gens[-1]
                item = gen.send(msg)
                target = item[0]
                if target is not None:
                    cframe = item[1]
                    if sampling_calls:
                        if cursor.on:
                            # Inside a window, calls made by still-
                            # plain activations must extend the
                            # receiver-context chain here (their
                            # templates carry no hooks).
                            if not (gen_traced and tracer.enabled):
                                recv = cframe.regs.get("this")
                                caller = frames[-1]
                                g = (extend_context(caller.g, recv.site)
                                     if recv is not None else caller.g)
                                cframe.g = g
                                cframe.dctx = ((g % ctx_slots)
                                               if ctx_slots else 0)
                            callee_traced = True
                            callee_fns = traced_fns
                        else:
                            # Untracked burst: no bookkeeping at all.
                            # RunControl rebuilds the chain from the
                            # live stack when the next window opens.
                            callee_traced = False
                            callee_fns = plain_fns
                    else:
                        callee_traced = tracer is not None
                        callee_fns = fns
                    frames.append(cframe)
                    gens.append((callee_fns[target](rt, cframe,
                                                    item[2], item[3]),
                                 callee_traced))
                    msg = None
                else:
                    count = item[2]
                    limit = item[3]
                    gens.pop()
                    frames.pop()
                    if gens:
                        # Traced resumers take their refreshed hoisted
                        # flag from the message (see _emit_call).
                        if gens[-1][1]:
                            msg = (item[1], count, limit,
                                   tracer.enabled
                                   and (cursor is None or cursor.on))
                        else:
                            msg = (item[1], count, limit)
                    else:
                        vm.result = item[1]
        finally:
            for gen, _ in gens:
                gen.close()
    except VMError:
        # Same containment contract as the interpreter loop: the
        # faulting template already stored its exact instruction count.
        rt.finish(vm.instr_count)
        vm._close_phases()
        raise
    vm.instr_count = count
    rt.finish(count)
    vm._close_phases()
    if telemetry.enabled:
        telemetry.vm_finish(vm)
    vm.finished = True
    vm.exec_tier = "compiled"
    return True
