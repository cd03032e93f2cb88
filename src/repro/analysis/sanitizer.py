"""MiniC sanitizer: definite-UB detection with zero false positives.

Backs ``wasicc --analyze``.  The sanitizer builds a statement-level CFG
per function (the same shape the Wasm CFG exposes, so it runs on the
generic engine in :mod:`repro.analysis.dataflow`) and reports only
*must* facts:

* ``div-by-zero``     — integer ``/``/``%`` whose divisor provably
                        evaluates to 0 on every path reaching it.
* ``uninitialized``   — read of a scalar local that no path has
                        assigned (Wasm zero-initializes locals, so the
                        program is deterministic — but the C it models
                        is UB).
* ``oob-index``       — constant index outside a known array bound
                        (``&a[len]`` one-past-the-end is allowed).
* ``unreachable``     — statements no execution can reach.

"May" facts are never reported, so a clean program stays clean: uses
inside short-circuit arms or ternaries are exempt from value-dependent
findings, address-taken/array locals are never tracked, and constant
folding refuses values that could wrap 32-bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..minic import ast
from . import dataflow

_WRAP_LIMIT = 1 << 31      # folded values at or past this are "unknown"


@dataclass(frozen=True)
class Finding:
    kind: str          # div-by-zero | uninitialized | oob-index | unreachable
    function: str
    line: int
    message: str

    def format(self, filename: str = "<source>") -> str:
        return (f"{filename}:{self.line}: warning: [{self.kind}] "
                f"{self.message} (in '{self.function}')")


# ---------------------------------------------------------------------------
# Statement-level CFG
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    index: int
    actions: List[ast.Expr] = field(default_factory=list)
    decls: List[ast.VarDecl] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    # Interleaved program order of actions/decls for the walker.
    order: List[Tuple[str, object]] = field(default_factory=list)
    # Two-way branch terminator: (cond expr, true succ, false succ).
    # Lets the dataflow refine constant facts per outgoing edge, so
    # ``if (d != 0) x / d`` is not a division-by-zero.
    branch: Optional[Tuple[object, int, int]] = None

    def add_expr(self, expr: ast.Expr) -> None:
        self.actions.append(expr)
        self.order.append(("expr", expr))

    def add_decl(self, decl: ast.VarDecl) -> None:
        self.decls.append(decl)
        self.order.append(("decl", decl))

    @property
    def first_line(self) -> Optional[int]:
        for _, item in self.order:
            line = getattr(item, "line", 0)
            if line:
                return line
        return None


class _StmtGraph:
    """CFG-protocol object over MiniC statements (see dataflow.solve)."""

    def __init__(self) -> None:
        self.blocks: List[_Node] = [_Node(0)]
        self.entry = 0
        self.exit_index = -1      # fixed up by the builder

    def new_node(self) -> _Node:
        node = _Node(len(self.blocks))
        self.blocks.append(node)
        return node

    def edge(self, a: _Node, b: _Node) -> None:
        a.succs.append(b.index)
        b.preds.append(a.index)

    def rpo(self) -> List[int]:
        seen: Set[int] = set()
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(self.entry, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for succ in reversed(self.blocks[node].succs):
                if succ not in seen:
                    stack.append((succ, False))
        order.reverse()
        return order


def _static_truth(expr: Optional[ast.Expr]) -> Optional[bool]:
    """Fold an environment-free constant condition; None when unknown."""
    value = _fold_pure(expr)
    if value is None:
        return None
    return value != 0


def _fold_pure(expr: Optional[ast.Expr]) -> Optional[int]:
    if isinstance(expr, ast.IntLit):
        return expr.value if abs(expr.value) < _WRAP_LIMIT else None
    if isinstance(expr, ast.Cast):
        return _fold_pure(expr.operand)
    if isinstance(expr, ast.Unary):
        v = _fold_pure(expr.operand)
        if v is None:
            return None
        if expr.op == "-":
            v = -v
        elif expr.op == "~":
            v = ~v
        elif expr.op == "!":
            v = int(v == 0)
        return v if abs(v) < _WRAP_LIMIT else None
    if isinstance(expr, ast.Ident) and expr.binding \
            and expr.binding[0] == "enum":
        return expr.binding[1]
    return None


class _GraphBuilder:
    def __init__(self) -> None:
        self.graph = _StmtGraph()
        self.current: Optional[_Node] = self.graph.blocks[0]
        self.break_stack: List[_Node] = []
        self.continue_stack: List[_Node] = []
        self._pending_returns: List[_Node] = []

    # -- helpers -----------------------------------------------------------

    def _ensure(self) -> _Node:
        # Statements after return/break/continue: fresh node, no preds.
        if self.current is None:
            self.current = self.graph.new_node()
        return self.current

    def _goto(self, target: _Node) -> None:
        if self.current is not None:
            self.graph.edge(self.current, target)
        self.current = None

    # -- construction ------------------------------------------------------

    def build(self, func: ast.FuncDef) -> _StmtGraph:
        self.stmt(func.body)
        exit_node = self.graph.new_node()
        if self.current is not None:
            self.graph.edge(self.current, exit_node)
        self.graph.exit_index = exit_node.index
        # Wire Return edges recorded along the way.
        for node in self._pending_returns:
            self.graph.edge(node, exit_node)
        return self.graph

    def stmt(self, s: Optional[ast.Stmt]) -> None:
        if s is None:
            return
        if isinstance(s, ast.Block):          # includes DeclGroup
            for child in s.statements:
                self.stmt(child)
        elif isinstance(s, ast.VarDecl):
            self._ensure().add_decl(s)
        elif isinstance(s, ast.ExprStmt):
            if s.expr is not None:
                self._ensure().add_expr(s.expr)
        elif isinstance(s, ast.If):
            self._if(s)
        elif isinstance(s, ast.While):
            self._while(s)
        elif isinstance(s, ast.DoWhile):
            self._do_while(s)
        elif isinstance(s, ast.For):
            self._for(s)
        elif isinstance(s, ast.Return):
            node = self._ensure()
            if s.value is not None:
                node.add_expr(s.value)
            self._pending_returns.append(node)
            self.current = None
        elif isinstance(s, ast.Break):
            if self.break_stack:
                self._goto(self.break_stack[-1])
            else:
                self.current = None
        elif isinstance(s, ast.Continue):
            if self.continue_stack:
                self._goto(self.continue_stack[-1])
            else:
                self.current = None
        elif isinstance(s, ast.Switch):
            self._switch(s)
        # Unknown statement kinds fall through as no-ops.

    def _if(self, s: ast.If) -> None:
        node = self._ensure()
        node.add_expr(s.cond)
        truth = _static_truth(s.cond)
        then_n = self.graph.new_node()
        else_n = self.graph.new_node() if s.other is not None else None
        join = self.graph.new_node()
        if truth is not False:
            self.graph.edge(node, then_n)
        if truth is not True:
            self.graph.edge(node, else_n if else_n is not None else join)
        if truth is None:
            node.branch = (s.cond, then_n.index,
                           (else_n if else_n is not None else join).index)
        self.current = then_n
        self.stmt(s.then)
        if self.current is not None:
            self.graph.edge(self.current, join)
        if else_n is not None:
            self.current = else_n
            self.stmt(s.other)
            if self.current is not None:
                self.graph.edge(self.current, join)
        self.current = join

    def _while(self, s: ast.While) -> None:
        header = self.graph.new_node()
        self._goto(header)
        header.add_expr(s.cond)
        truth = _static_truth(s.cond)
        body = self.graph.new_node()
        exit_n = self.graph.new_node()
        if truth is not False:
            self.graph.edge(header, body)
        if truth is not True:
            self.graph.edge(header, exit_n)
        if truth is None:
            header.branch = (s.cond, body.index, exit_n.index)
        self.break_stack.append(exit_n)
        self.continue_stack.append(header)
        self.current = body
        self.stmt(s.body)
        if self.current is not None:
            self.graph.edge(self.current, header)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.current = exit_n

    def _do_while(self, s: ast.DoWhile) -> None:
        body = self.graph.new_node()
        self._goto(body)
        latch = self.graph.new_node()
        exit_n = self.graph.new_node()
        self.break_stack.append(exit_n)
        self.continue_stack.append(latch)
        self.current = body
        self.stmt(s.body)
        if self.current is not None:
            self.graph.edge(self.current, latch)
        latch.add_expr(s.cond)
        truth = _static_truth(s.cond)
        if truth is not False:
            self.graph.edge(latch, body)
        if truth is not True:
            self.graph.edge(latch, exit_n)
        if truth is None:
            latch.branch = (s.cond, body.index, exit_n.index)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.current = exit_n

    def _for(self, s: ast.For) -> None:
        self.stmt(s.init)
        header = self.graph.new_node()
        self._goto(header)
        truth = True               # no condition means "forever"
        if s.cond is not None:
            header.add_expr(s.cond)
            truth = _static_truth(s.cond)
        body = self.graph.new_node()
        exit_n = self.graph.new_node()
        step = self.graph.new_node()
        if s.step is not None:
            step.add_expr(s.step)
        self.graph.edge(step, header)
        if truth is not False:
            self.graph.edge(header, body)
        if truth is not True:
            self.graph.edge(header, exit_n)
        if truth is None:
            header.branch = (s.cond, body.index, exit_n.index)
        self.break_stack.append(exit_n)
        self.continue_stack.append(step)
        self.current = body
        self.stmt(s.body)
        if self.current is not None:
            self.graph.edge(self.current, step)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.current = exit_n

    def _switch(self, s: ast.Switch) -> None:
        dispatch = self._ensure()
        dispatch.add_expr(s.scrutinee)
        exit_n = self.graph.new_node()
        case_nodes = [self.graph.new_node() for _ in s.cases]
        has_default = any(c.value is None for c in s.cases)
        for node in case_nodes:
            self.graph.edge(dispatch, node)
        if not has_default:
            self.graph.edge(dispatch, exit_n)
        self.break_stack.append(exit_n)
        self.current = None
        for i, case in enumerate(s.cases):
            if self.current is not None:       # fallthrough from prior arm
                self.graph.edge(self.current, case_nodes[i])
            self.current = case_nodes[i]
            for child in case.body:
                self.stmt(child)
        if self.current is not None:
            self.graph.edge(self.current, exit_n)
        self.break_stack.pop()
        self.current = exit_n


def build_stmt_graph(func: ast.FuncDef) -> _StmtGraph:
    return _GraphBuilder().build(func)


# ---------------------------------------------------------------------------
# Abstract state + expression walker
# ---------------------------------------------------------------------------


def _tracked(decl: Optional[ast.VarDecl]) -> bool:
    """Scalar wasm-register locals only: arrays and address-taken
    locals live in shadow-stack memory and are excluded from both the
    uninitialized-use and the constant analyses."""
    if not isinstance(decl, ast.VarDecl):
        return False
    t = decl.var_type
    if t is None or t.is_array or decl.needs_memory:
        return False
    return True


def _local_decl(expr: ast.Expr) -> Optional[ast.VarDecl]:
    if isinstance(expr, ast.Ident) and expr.binding \
            and expr.binding[0] == "local":
        decl = expr.binding[1]
        if _tracked(decl):
            return decl
    return None


def _array_of(expr: ast.Expr):
    """Static array type of ``expr`` when it denotes a whole array."""
    if isinstance(expr, ast.Ident) and expr.binding \
            and expr.binding[0] in ("local", "global"):
        t = expr.binding[1].var_type
        if t is not None and t.is_array and t.length:
            return t
    if isinstance(expr, ast.Index):
        outer = _array_of(expr.base)
        if outer is not None and outer.elem is not None \
                and outer.elem.is_array and outer.elem.length:
            return outer.elem
    return None


class _Walker:
    """Evaluates one node's expressions over (assigned, consts).

    With ``emit`` set, reports findings; with ``emit=None`` it is the
    pure transfer function.  ``conditional`` marks positions whose
    execution is not implied by reaching the node (short-circuit arms,
    ternary arms): value findings are suppressed there and constant
    knowledge is weakened instead of replaced.
    """

    def __init__(self, assigned: Set[int], consts: Dict[int, int],
                 emit=None, function: str = "") -> None:
        self.assigned = assigned
        self.consts = consts
        self.emit = emit
        self.function = function

    # -- findings ----------------------------------------------------------

    def _report(self, kind: str, line: int, message: str) -> None:
        if self.emit is not None:
            self.emit(Finding(kind, self.function, line, message))

    # -- dispatch ----------------------------------------------------------

    def expr(self, e: Optional[ast.Expr], conditional: bool = False,
             past_end_ok: bool = False) -> Optional[int]:
        if e is None:
            return None
        if isinstance(e, ast.IntLit):
            return e.value if abs(e.value) < _WRAP_LIMIT else None
        if isinstance(e, (ast.FloatLit, ast.StrLit, ast.SizeofType)):
            return None
        if isinstance(e, ast.Ident):
            return self._ident(e, conditional)
        if isinstance(e, ast.Unary):
            return self._unary(e, conditional)
        if isinstance(e, ast.AddrOf):
            self._addr_of(e, conditional)
            return None
        if isinstance(e, ast.Deref):
            self.expr(e.operand, conditional)
            return None
        if isinstance(e, ast.Binary):
            return self._binary(e, conditional)
        if isinstance(e, ast.Assign):
            return self._assign(e, conditional)
        if isinstance(e, ast.IncDec):
            return self._incdec(e, conditional)
        if isinstance(e, ast.Cond):
            self.expr(e.cond, conditional)
            self.expr(e.then, True)
            self.expr(e.other, True)
            return None
        if isinstance(e, ast.Call):
            if not isinstance(e.func, ast.Ident):
                self.expr(e.func, conditional)
            for arg in e.args:
                self.expr(arg, conditional)
            return None
        if isinstance(e, ast.Index):
            return self._index(e, conditional, past_end_ok)
        if isinstance(e, ast.Cast):
            v = self.expr(e.operand, conditional)
            t = e.target_type
            if v is not None and t is not None and t.is_integer \
                    and t.size >= 4:
                return v
            return None
        return None

    # -- expression kinds --------------------------------------------------

    def _ident(self, e: ast.Ident, conditional: bool) -> Optional[int]:
        if e.binding and e.binding[0] == "enum":
            return e.binding[1]
        decl = _local_decl(e)
        if decl is None:
            return None
        if id(decl) not in self.assigned and not conditional:
            self._report(
                "uninitialized", e.line,
                f"use of uninitialized variable '{decl.name}'")
        return self.consts.get(id(decl))

    def _unary(self, e: ast.Unary, conditional: bool) -> Optional[int]:
        v = self.expr(e.operand, conditional)
        if v is None:
            return None
        if e.op == "-":
            v = -v
        elif e.op == "~":
            v = ~v
        elif e.op == "!":
            v = int(v == 0)
        return v if abs(v) < _WRAP_LIMIT else None

    def _addr_of(self, e: ast.AddrOf, conditional: bool) -> None:
        inner = e.operand
        if isinstance(inner, ast.Ident):
            return                 # taking an address is not a read
        if isinstance(inner, ast.Index):
            self._index(inner, conditional, past_end_ok=True)
            return
        self.expr(inner, conditional)

    def _binary(self, e: ast.Binary, conditional: bool) -> Optional[int]:
        opname = e.op
        if opname in ("&&", "||"):
            lv = self.expr(e.left, conditional)
            self.expr(e.right, True)
            if lv is not None:
                if opname == "&&" and lv == 0:
                    return 0
                if opname == "||" and lv != 0:
                    return 1
            return None
        lv = self.expr(e.left, conditional)
        rv = self.expr(e.right, conditional)
        if opname in ("/", "%"):
            is_int = e.ctype is not None and e.ctype.is_integer
            if rv == 0 and is_int and not conditional:
                self._report("div-by-zero", e.line,
                             f"integer {'division' if opname == '/' else 'remainder'}"
                             f" by constant zero")
            if lv is None or rv is None or rv == 0 or not is_int \
                    or lv < 0 or rv < 0:
                return None
            return lv // rv if opname == "/" else lv % rv
        if lv is None or rv is None:
            return None
        v = _apply_binop(opname, lv, rv)
        if v is None or abs(v) >= _WRAP_LIMIT:
            return None
        return v

    def _assign(self, e: ast.Assign, conditional: bool) -> Optional[int]:
        rv = self.expr(e.value, conditional)
        target = e.target
        decl = _local_decl(target) if target is not None else None
        if e.op in ("/=", "%=") and rv == 0 and not conditional \
                and e.ctype is not None and e.ctype.is_integer:
            self._report("div-by-zero", e.line,
                         "integer division by constant zero")
        if decl is None:
            # Writing through memory: evaluate the lvalue subexpressions.
            if isinstance(target, ast.Index):
                self._index(target, conditional, past_end_ok=False)
            elif isinstance(target, ast.Deref):
                self.expr(target.operand, conditional)
            return None
        key = id(decl)
        new_value: Optional[int] = None
        if e.op == "=":
            new_value = rv
        else:
            if key not in self.assigned and not conditional:
                self._report(
                    "uninitialized", target.line,
                    f"use of uninitialized variable '{decl.name}'")
            old = self.consts.get(key)
            if old is not None and rv is not None:
                base_op = e.op[:-1]
                if base_op in ("/", "%"):
                    if rv != 0 and old >= 0 and rv > 0:
                        new_value = old // rv if base_op == "/" else old % rv
                else:
                    new_value = _apply_binop(base_op, old, rv)
        self.assigned.add(key)
        if conditional or new_value is None \
                or abs(new_value) >= _WRAP_LIMIT:
            self.consts.pop(key, None)
        else:
            self.consts[key] = new_value
        return new_value

    def _incdec(self, e: ast.IncDec, conditional: bool) -> Optional[int]:
        target = e.target
        decl = _local_decl(target) if target is not None else None
        if decl is None:
            if isinstance(target, ast.Index):
                self._index(target, conditional, past_end_ok=False)
            elif target is not None:
                self.expr(target, conditional)
            return None
        key = id(decl)
        if key not in self.assigned and not conditional:
            self._report("uninitialized", target.line,
                         f"use of uninitialized variable '{decl.name}'")
        old = self.consts.get(key)
        new_value = None
        if old is not None:
            new_value = old + 1 if e.op == "++" else old - 1
        self.assigned.add(key)
        if conditional or new_value is None \
                or abs(new_value) >= _WRAP_LIMIT:
            self.consts.pop(key, None)
        else:
            self.consts[key] = new_value
        return None

    def _index(self, e: ast.Index, conditional: bool,
               past_end_ok: bool) -> Optional[int]:
        self.expr(e.base, conditional)
        iv = self.expr(e.index, conditional)
        arr = _array_of(e.base)
        if arr is not None and iv is not None and not conditional:
            limit = arr.length + (1 if past_end_ok else 0)
            if iv < 0 or iv >= limit:
                self._report(
                    "oob-index", e.line,
                    f"index {iv} out of bounds for array of "
                    f"length {arr.length}")
        return None


def _apply_binop(opname: str, lv: int, rv: int) -> Optional[int]:
    if opname == "+":
        return lv + rv
    if opname == "-":
        return lv - rv
    if opname == "*":
        return lv * rv
    if opname == "<<":
        return lv << rv if 0 <= rv < 31 and lv >= 0 else None
    if opname == ">>":
        return lv >> rv if 0 <= rv < 32 and lv >= 0 else None
    if opname == "&":
        return lv & rv
    if opname == "|":
        return lv | rv
    if opname == "^":
        return lv ^ rv
    if opname == "<":
        return int(lv < rv)
    if opname == "<=":
        return int(lv <= rv)
    if opname == ">":
        return int(lv > rv)
    if opname == ">=":
        return int(lv >= rv)
    if opname == "==":
        return int(lv == rv)
    if opname == "!=":
        return int(lv != rv)
    return None


# ---------------------------------------------------------------------------
# Dataflow glue
# ---------------------------------------------------------------------------

_Fact = Tuple[frozenset, tuple]    # (assigned ids, sorted (id, value) pairs)


class _SanitizerAnalysis(dataflow.DataflowAnalysis):
    direction = "forward"

    def __init__(self, func: ast.FuncDef) -> None:
        self.func = func
        params = getattr(func, "param_decls", [])
        self.param_ids = frozenset(id(d) for d in params if _tracked(d))

    def boundary(self) -> _Fact:
        return (self.param_ids, ())

    def join(self, a: _Fact, b: _Fact) -> _Fact:
        assigned = a[0] | b[0]
        bconsts = dict(b[1])
        consts = tuple(sorted(
            (k, v) for k, v in a[1] if bconsts.get(k) == v))
        return (assigned, consts)

    def transfer(self, node: _Node, fact: _Fact) -> _Fact:
        assigned = set(fact[0])
        consts = dict(fact[1])
        _run_node(node, assigned, consts, emit=None, function="")
        return (frozenset(assigned), tuple(sorted(consts.items())))

    def edge(self, node: _Node, succ_pos: int, fact: _Fact) -> _Fact:
        if node.branch is None or fact is None:
            return fact
        cond, true_idx, false_idx = node.branch
        succ = node.succs[succ_pos]
        if true_idx == false_idx or succ not in (true_idx, false_idx):
            return fact
        return _refine_fact(cond, fact, succ == true_idx)


def _guard_facts(expr, is_true: bool) -> List[Tuple[int, int, bool]]:
    """Equality facts ``(decl id, value, is_eq)`` a branch edge proves."""
    while isinstance(expr, ast.Unary) and expr.op == "!":
        expr = expr.operand
        is_true = not is_true
    if isinstance(expr, ast.Ident):
        decl = _local_decl(expr)
        if decl is not None and _tracked(decl):
            # true edge proves x != 0; false edge proves x == 0
            return [(id(decl), 0, not is_true)]
        return []
    if isinstance(expr, ast.Binary):
        if expr.op == "&&" and is_true:
            return (_guard_facts(expr.left, True) +
                    _guard_facts(expr.right, True))
        if expr.op == "||" and not is_true:
            return (_guard_facts(expr.left, False) +
                    _guard_facts(expr.right, False))
        if expr.op in ("==", "!="):
            for a, b in ((expr.left, expr.right),
                         (expr.right, expr.left)):
                decl = _local_decl(a) if isinstance(a, ast.Ident) else None
                value = _fold_pure(b)
                if decl is not None and _tracked(decl) \
                        and value is not None:
                    return [(id(decl), value, (expr.op == "==") == is_true)]
    return []


def _refine_fact(cond, fact: _Fact, is_true: bool) -> _Fact:
    """Apply what taking this edge proves to the constant environment.

    Proven ``x == c`` pins the constant; proven ``x != c`` drops a
    contradicting must-constant (rather than marking the edge
    infeasible: defensively-guarded code should lint clean, not be
    reported unreachable).
    """
    facts = _guard_facts(cond, is_true)
    if not facts:
        return fact
    consts = dict(fact[1])
    changed = False
    for key, value, is_eq in facts:
        if is_eq:
            if consts.get(key) != value and abs(value) < _WRAP_LIMIT:
                consts[key] = value
                changed = True
        elif key in consts and consts[key] == value:
            del consts[key]
            changed = True
    if not changed:
        return fact
    return (fact[0], tuple(sorted(consts.items())))


def _run_node(node: _Node, assigned: Set[int], consts: Dict[int, int],
              emit, function: str) -> None:
    walker = _Walker(assigned, consts, emit, function)
    for tag, item in node.order:
        if tag == "expr":
            walker.expr(item)
        else:                       # VarDecl
            decl = item
            if decl.init is not None:
                value = walker.expr(decl.init)
                if _tracked(decl):
                    assigned.add(id(decl))
                    if value is not None:
                        consts[id(decl)] = value
                    else:
                        consts.pop(id(decl), None)
            elif decl.init_list is not None:
                for sub in decl.init_list:
                    walker.expr(sub)
            # Plain scalar declaration: stays unassigned.


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def analyze_function(func: ast.FuncDef) -> List[Finding]:
    if func.body is None:
        return []
    graph = build_stmt_graph(func)
    analysis = _SanitizerAnalysis(func)
    in_facts, _ = dataflow.solve(graph, analysis)

    findings: List[Finding] = []
    emit = findings.append

    reported: Set[int] = set()

    def emit_once(finding: Finding) -> None:
        key = hash((finding.kind, finding.line, finding.message))
        if key not in reported:
            reported.add(key)
            emit(finding)

    for node in graph.blocks:
        fact = in_facts[node.index]
        if fact is None:
            continue
        _run_node(node, set(fact[0]), dict(fact[1]), emit_once, func.name)

    # Dead code: report once per region entry (a dead node none of whose
    # predecessors is dead).
    dead = {node.index for node in graph.blocks
            if in_facts[node.index] is None}
    for node in graph.blocks:
        if node.index not in dead or not node.order:
            continue
        if any(p in dead for p in node.preds):
            continue
        line = node.first_line
        if line:
            emit_once(Finding("unreachable", func.name, line,
                              "unreachable code"))
    findings.sort(key=lambda f: (f.line, f.kind))
    return findings


def analyze_unit(unit: ast.TranslationUnit,
                 min_line: int = 0) -> List[Finding]:
    """Sanitize every function defined after ``min_line``."""
    findings: List[Finding] = []
    for func in unit.functions:
        if func.body is None or func.line <= min_line:
            continue
        findings.extend(analyze_function(func))
    findings.sort(key=lambda f: (f.line, f.function, f.kind))
    return findings


def analyze_source(source: str, defines: Optional[Dict[str, str]] = None,
                   include_libc: bool = True) -> List[Finding]:
    """Parse + typecheck ``source`` and sanitize the user functions.

    Parses behind the libc as ``compile_source`` does, then rebases line
    numbers so findings point into the caller's source text.
    """
    from ..compiler.libc import LIBC_PRELUDE
    from ..minic import analyze, parse

    prelude = LIBC_PRELUDE if include_libc else None
    offset = prelude.line_offset if prelude else 0
    all_defines = {"TARGET_NATIVE": "0"}
    all_defines.update(defines or {})
    unit = parse(source, all_defines, prelude=prelude)
    analyze(unit)
    findings = analyze_unit(unit, min_line=offset)
    if not offset:
        return findings
    return [Finding(f.kind, f.function, f.line - offset, f.message)
            for f in findings if f.line > offset]
