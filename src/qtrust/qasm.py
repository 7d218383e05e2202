"""OpenQASM 2.0 frontend for a fixed gate subset.

Supported productions (see docs/qasm_grammar.md for the full list):
header, include, qreg/creg declarations, gate macro definitions whose
bodies reduce to supported primitives, gate applications with register
broadcast, barrier and measure. Classical control flow, opaque gates and
reset are rejected.
"""
from __future__ import annotations

import math
import operator
import re
from typing import NamedTuple

from .circuit import (
    MAX_QUBITS,
    CapacityExceeded,
    Circuit,
    CircuitError,
    GateKind,
    Instruction,
    check_measure_rules,
)

# a gate's QASM name is its GateKind value, plus the U/u and CX spellings
_PRIMITIVES = {
    kind.value: kind
    for kind in GateKind
    if kind not in (GateKind.BARRIER, GateKind.MEASURE)
} | {"u": GateKind.U3, "U": GateKind.U3, "CX": GateKind.CX}
_BUILTIN_NAMES = set(_PRIMITIVES) | {"id"}  # id is a no-op: it builds nothing

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,  # raises instead of returning a complex for (-8)^(1/3)
}

_MAX_EXPANSION_DEPTH = 32
_MAX_EXPR_DEPTH = 64
MAX_INSTRUCTIONS = 100_000  # per circuit after expansion, and its id and macro calls


class QasmError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QasmSyntaxError(QasmError):
    pass


class UnsupportedGateError(QasmError):
    pass


class QasmIndexError(QasmError, IndexError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<sym>[;,(){}\[\]+\-*/^=])
""",
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line = 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise QasmSyntaxError(f"unexpected character {source[pos]!r}", line)
        line += source[pos : m.end()].count("\n")
        pos = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        tokens.append(_Token(kind, m.group(), line))
    return tokens


class _GateDef(NamedTuple):
    params: list[str]
    qargs: list[str]
    body: list[tuple]  # (name, exprs, qarg names, line) per call
    # one application's (instructions built, calls that build nothing:
    # itself, the macros it expands and their id calls)
    cost: tuple[int, int]


def _eval(node, env: dict[str, float]) -> float:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        _, name, line = node
        if name not in env:
            raise QasmSyntaxError(f"unknown parameter {name!r}", line)
        return env[name]
    if tag == "neg":
        return -_eval(node[1], env)
    if tag == "fn":
        return _FUNCTIONS[node[1]](_eval(node[2], env))
    _, first, rest = node  # "ops": first (op operand)*, left to right
    value = _eval(first, env)
    for op, operand in rest:
        value = _BINARY[op](value, _eval(operand, env))
    return value


def _evaluate(exprs, env: dict[str, float]) -> tuple[float, ...]:
    """Evaluate (line, ast) parameter expressions to finite floats."""
    values = []
    for line, node in exprs:
        try:
            value = _eval(node, env)
        except QasmError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise QasmSyntaxError(f"cannot evaluate expression: {exc}", line) from None
        if not math.isfinite(value):
            raise QasmSyntaxError(f"expression evaluates to {value}", line)
        values.append(value)
    return tuple(values)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # expression nesting, bounded by _MAX_EXPR_DEPTH
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.gatedefs: dict[str, _GateDef] = {}
        self.instructions: list[Instruction] = []
        self.calls = 0  # expansion calls so far that built nothing
        self.measured: set[int] = set()  # qubits measured so far
        self.written: set[int] = set()  # clbits written so far

    # --- token plumbing -------------------------------------------------

    def _peek(self) -> str | None:
        return self.tokens[self.pos].text if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        if self.pos == len(self.tokens):
            last = self.tokens[-1].line if self.tokens else 1
            raise QasmSyntaxError("unexpected end of input", last)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _accept(self, text: str) -> bool:
        if self._peek() != text:
            return False
        self.pos += 1
        return True

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if tok.text != text:
            raise QasmSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.line)
        return tok

    def _expect_id(self) -> _Token:
        tok = self._next()
        if tok.kind != "id":
            raise QasmSyntaxError(f"expected identifier, found {tok.text!r}", tok.line)
        return tok

    def _expect_name(self) -> str:
        return self._expect_id().text

    def _expect_int(self, what: str) -> tuple[int, int]:
        tok = self._next()
        if tok.kind != "number" or not tok.text.isdecimal():
            raise QasmSyntaxError(f"{what} must be an integer", tok.line)
        try:
            return int(tok.text), tok.line
        except ValueError:  # more digits than int() converts
            raise QasmSyntaxError(f"{what} is too large", tok.line) from None

    def _parse_list(self, item) -> list:
        """item ("," item)*"""
        items = [item()]
        while self._accept(","):
            items.append(item())
        return items

    def _parse_paren_list(self, item) -> list:
        """("(" (item ("," item)*)? ")")?"""
        if not self._accept("("):
            return []
        items = [] if self._peek() == ")" else self._parse_list(item)
        self._expect(")")
        return items

    # --- expressions ----------------------------------------------------

    def _parse_param(self):
        """One parameter expression as (line it starts on, ast)."""
        start = self.pos
        node = self._parse_expr()
        return self.tokens[start].line, node

    def _parse_expr(self):
        return self._parse_ops(("+", "-"), self._parse_term)

    def _parse_term(self):
        return self._parse_ops(("*", "/"), self._parse_factor)

    def _parse_ops(self, ops, operand):
        """operand (op operand)*, left-associative, as one flat node."""
        first = operand()
        rest = []
        while self._peek() in ops:
            rest.append((self._next().text, operand()))
        return ("ops", first, rest) if rest else first

    def _parse_factor(self):
        """"-" factor | atom ("^" factor)?, at most _MAX_EXPR_DEPTH deep."""
        if self.depth == _MAX_EXPR_DEPTH:
            line = self.tokens[self.pos - 1].line
            raise QasmSyntaxError("expression nested too deeply", line)
        self.depth += 1
        if self._accept("-"):
            node = ("neg", self._parse_factor())
        else:
            node = self._parse_atom()
            if self._accept("^"):
                node = ("ops", node, [("^", self._parse_factor())])
        self.depth -= 1
        return node

    def _parse_atom(self):
        tok = self._next()
        if tok.kind == "number":
            return ("num", float(tok.text))
        if tok.kind == "id":
            if tok.text == "pi":
                return ("num", math.pi)
            if tok.text in _FUNCTIONS:
                self._expect("(")
                inner = self._parse_expr()
                self._expect(")")
                return ("fn", tok.text, inner)
            return ("var", tok.text, tok.line)
        if tok.text == "(":
            inner = self._parse_expr()
            self._expect(")")
            return inner
        raise QasmSyntaxError(f"unexpected token {tok.text!r} in expression", tok.line)

    # --- statements -----------------------------------------------------

    def parse_program(self) -> None:
        if self._accept("OPENQASM"):
            version = self._next()
            if version.text != "2.0":
                raise QasmSyntaxError(
                    f"unsupported OPENQASM version {version.text}", version.line
                )
            self._expect(";")
        while self._peek() is not None:
            line = self.tokens[self.pos].line
            try:
                self._parse_statement()
            except CapacityExceeded:  # a guard, raised as itself
                raise
            except CircuitError as err:  # an instruction the circuit rejects
                raise QasmError(str(err), line) from None

    def _parse_statement(self) -> None:
        tok = self._next()
        if tok.text == "include":
            name = self._next()
            if name.kind != "string":
                raise QasmSyntaxError("include expects a string", name.line)
            self._expect(";")
        elif tok.text in ("qreg", "creg"):
            self._parse_register(self.qregs if tok.text == "qreg" else self.cregs)
        elif tok.text == "gate":
            self._parse_gatedef()
        elif tok.text == "measure":
            self._parse_measure()
        elif tok.text == "barrier":
            self._parse_barrier()
        elif tok.text in ("if", "reset", "opaque"):
            raise QasmSyntaxError(f"unsupported statement {tok.text!r}", tok.line)
        elif tok.kind == "id":
            self._parse_application(tok)
        else:
            raise QasmSyntaxError(f"unexpected token {tok.text!r}", tok.line)

    def _parse_register(self, table) -> None:
        name = self._expect_id()
        self._expect("[")
        size, line = self._expect_int("register size")
        if size < 1:
            raise QasmSyntaxError("register size must be positive", line)
        self._expect("]")
        self._expect(";")
        if name.text in self.qregs or name.text in self.cregs:
            raise QasmSyntaxError(f"register {name.text!r} redefined", name.line)
        offset = sum(s for _, s in table.values())
        if table is self.qregs and offset + size > MAX_QUBITS:
            # the same guard Circuit applies, before any instruction is built
            raise CapacityExceeded(
                f"{offset + size} qubits exceeds the {MAX_QUBITS}-qubit guard"
            )
        table[name.text] = (offset, size)

    def _parse_gatedef(self) -> None:
        name = self._expect_id()
        if name.text in self.gatedefs or name.text in _BUILTIN_NAMES:
            raise QasmSyntaxError(f"gate {name.text!r} redefined", name.line)
        params = self._parse_paren_list(self._expect_name)
        qargs = self._parse_list(self._expect_name)
        self._expect("{")
        body = []
        while self._peek() not in ("}", None):
            if self._accept("barrier"):  # no effect inside a macro: skip to ";"
                while not self._accept(";"):
                    self._next()
            else:
                body.append(self._parse_body_call(qargs))
        self._expect("}")
        costs = [self._cost(call[0]) for call in body]
        cost = sum(size for size, _ in costs), 1 + sum(calls for _, calls in costs)
        self.gatedefs[name.text] = _GateDef(params, qargs, body, cost)

    def _parse_body_call(self, qargs):
        name = self._expect_id()
        exprs = self._parse_paren_list(self._parse_param)
        args = self._parse_list(self._expect_id)
        self._expect(";")
        for arg in args:
            if arg.text not in qargs:
                raise QasmSyntaxError(
                    f"unknown qubit argument {arg.text!r} in gate body", arg.line
                )
        if name.text not in _BUILTIN_NAMES and name.text not in self.gatedefs:
            # covers recursion: a gate cannot reference itself or later names
            raise UnsupportedGateError(
                f"gate body uses unsupported gate {name.text!r}", name.line
            )
        return (name.text, exprs, [a.text for a in args], name.line)

    def _parse_arg(self, table, kind: str):
        """ID ("[" int "]")? in `table`: (its bits as a range, bare?, line)."""
        name = self._expect_id()
        if name.text not in table:
            raise QasmSyntaxError(f"unknown {kind} register {name.text!r}", name.line)
        offset, size = table[name.text]
        if not self._accept("["):
            return range(offset, offset + size), True, name.line
        index, line = self._expect_int("index")
        self._expect("]")
        if index >= size:
            raise QasmIndexError(
                f"{name.text}[{index}] out of bounds (size {size})", line
            )
        return range(offset + index, offset + index + 1), False, name.line

    def _parse_qubit(self):
        return self._parse_arg(self.qregs, "quantum")

    def _parse_application(self, name: _Token) -> None:
        exprs = self._parse_paren_list(self._parse_param)
        args = self._parse_list(self._parse_qubit)
        self._expect(";")
        params = _evaluate(exprs, {})
        # a bare register broadcasts the gate over its qubits
        sizes = {len(bits) for bits, bare, _ in args if bare}
        if len(sizes) > 1:
            raise QasmSyntaxError("mismatched register sizes in broadcast", name.line)
        repeats = sizes.pop() if sizes else 1
        size, calls = self._cost(name.text)
        total = len(self.instructions) + repeats * size
        total_calls = self.calls + repeats * calls
        # both checked before any instruction of the application is built
        if total > MAX_INSTRUCTIONS:
            raise CapacityExceeded(
                f"line {name.line}: {name.text} would take the circuit to {total} "
                f"instructions, past the {MAX_INSTRUCTIONS}-instruction guard"
            )
        if total_calls > MAX_INSTRUCTIONS:  # macros that build little or nothing
            raise CapacityExceeded(
                f"line {name.line}: {name.text} would take the expansion to "
                f"{total_calls} macro and id calls, past the "
                f"{MAX_INSTRUCTIONS}-call guard"
            )
        self.calls = total_calls
        start = len(self.instructions)
        for i in range(repeats):
            qubits = [bits[i] if bare else bits[0] for bits, bare, _ in args]
            self._emit_call(name.text, params, qubits, name.line, depth=0)
        if self.measured:  # the rules have nothing to check before then
            for instr in self.instructions[start:]:
                check_measure_rules(instr, self.measured, self.written)

    def _cost(self, name: str) -> tuple[int, int]:
        """(instructions built, calls that build nothing) of one call of
        `name`; (0, 0) if it is unknown."""
        if name in self.gatedefs:
            return self.gatedefs[name].cost
        return int(name in _PRIMITIVES), int(name == "id")  # id builds nothing

    def _emit_call(self, name, params, qubits, line, depth) -> None:
        if depth > _MAX_EXPANSION_DEPTH:
            raise UnsupportedGateError("gate expansion too deep", line)
        if name == "id":
            return
        kind, gdef = _PRIMITIVES.get(name), self.gatedefs.get(name)
        if kind is None and gdef is None:
            raise UnsupportedGateError(f"unsupported gate {name!r}", line)
        if kind is not None:
            num_params, num_qubits = kind.num_params, kind.arity
        else:
            num_params, num_qubits = len(gdef.params), len(gdef.qargs)
        if len(params) != num_params:
            raise QasmSyntaxError(f"{name} expects {num_params} parameter(s)", line)
        if len(qubits) != num_qubits:
            raise QasmSyntaxError(
                f"{name} expects {num_qubits} qubit argument(s)", line
            )
        if kind is not None:
            self.instructions.append(Instruction(kind, tuple(qubits), params))
            return
        env = dict(zip(gdef.params, params))
        qmap = dict(zip(gdef.qargs, qubits))
        for sub_name, sub_exprs, sub_args, sub_line in gdef.body:
            sub_params = _evaluate(sub_exprs, env)
            sub_qubits = [qmap[a] for a in sub_args]
            self._emit_call(sub_name, sub_params, sub_qubits, sub_line, depth + 1)

    def _parse_barrier(self) -> None:
        qubits = [q for bits, _, _ in self._parse_list(self._parse_qubit) for q in bits]
        self._expect(";")
        self.instructions.append(Instruction(GateKind.BARRIER, tuple(qubits)))

    def _parse_measure(self) -> None:
        qubits, q_bare, line = self._parse_qubit()
        arrow = self._next()
        if arrow.text != "->":
            raise QasmSyntaxError("measure expects '->'", arrow.line)
        clbits, c_bare, _ = self._parse_arg(self.cregs, "classical")
        self._expect(";")
        if q_bare != c_bare:
            raise QasmSyntaxError("measure mixes register and single-bit forms", line)
        if len(qubits) != len(clbits):
            raise QasmSyntaxError("measure register sizes differ", line)
        for q, c in zip(qubits, clbits):
            instr = Instruction(GateKind.MEASURE, (q,), clbit=c)
            check_measure_rules(instr, self.measured, self.written)
            self.instructions.append(instr)

    def circuit(self, name: str = "") -> Circuit:
        num_qubits = sum(s for _, s in self.qregs.values())
        num_clbits = sum(s for _, s in self.cregs.values())
        if num_qubits == 0:
            raise QasmSyntaxError("no quantum register declared", 1)
        return Circuit(num_qubits, num_clbits, tuple(self.instructions), name)


def parse_qasm(source: str, name: str = "") -> Circuit:
    """Parse OpenQASM 2.0 text (supported subset) into a Circuit."""
    parser = _Parser(_tokenize(source))
    parser.parse_program()
    return parser.circuit(name)


def circuit_to_qasm(circuit: Circuit) -> str:
    """Serialize a Circuit back to OpenQASM 2.0 text (round-trip safe).

    No pipeline stage calls it: it serves the parser's round-trip tests
    and the serialization that ``docs/qasm_grammar.md`` § Serialization
    documents for library users.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for instr in circuit.instructions:
        if instr.kind is GateKind.MEASURE:
            lines.append(f"measure q[{instr.qubits[0]}] -> c[{instr.clbit}];")
        elif instr.kind is GateKind.BARRIER:
            args = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"barrier {args};")
        else:
            gate = instr.kind.value
            params = f"({','.join(repr(p) for p in instr.params)})" if instr.params else ""
            args = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"{gate}{params} {args};")
    return "\n".join(lines) + "\n"
