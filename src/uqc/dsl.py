"""Textual model language: parsing to the graph IR and printing back.

Grammar (one statement per line, `#` starts a comment, files use `.uq`):

    program := stmt+
    stmt    := input | param | assign | output
    input   := "input" IDENT "~" ("Normal" | "Uniform") "(" REAL "," REAL ")"
    param   := "param" IDENT "=" REAL
    assign  := IDENT "=" expr
    output  := "output" IDENT "=" expr
    expr    := additive over +, -, *, /, ^ with usual precedence,
               ^ right-associative, unary minus, calls of
               sin|cos|tan|exp|log|sqrt, the literal `pi`, decimal or
               scientific reals, and parentheses.

Lowering walks each expression depth-first, left to right, emitting one
elementary operation per operator or call; constant subexpressions stay in
the graph as constant nodes (no folding).  Two special cases: a minus sign
directly on a numeric literal is part of the literal (no neg operation),
and `a ^ b` becomes a pow_const operation when b is a literal but is
rewritten as exp(b * log(a)) otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .distributions import Distribution, Normal, Uniform
from .errors import DuplicateNameError, ParseError, UndefinedNameError
from .graph import Graph, GraphBuilder, OperationNode

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
_KEYWORDS = ("input", "param", "output")

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[-+*/^()=,~])
  | (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str   # 'number' | 'ident' | 'punct' | 'newline' | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
            if m.lastgroup not in ("ws", "comment"):
                tokens.append(Token(m.lastgroup, m.group(), line_no, pos + 1))
            pos = m.end()
        tokens.append(Token("newline", "", line_no, len(line) + 1))
    tokens.append(Token("eof", "", text.count("\n") + 1, 1))
    return tokens


# AST nodes carry the source position of their head token for error reporting.

@dataclass(frozen=True)
class Num:
    value: float
    line: int
    column: int


@dataclass(frozen=True)
class Ref:
    name: str
    line: int
    column: int


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object
    line: int
    column: int


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    line: int
    column: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    line: int
    column: int


@dataclass(frozen=True)
class Paren:
    # Kept distinct from its content so that a minus sign in front of a
    # parenthesized literal stays a neg operation instead of folding into
    # the literal's sign.
    inner: object


def _unwrap_parens(node):
    while isinstance(node, Paren):
        node = node.inner
    return node


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._peek()
        if tok.kind == "punct" and tok.text == text:
            return self._next()
        raise ParseError(f"got {tok.text!r}" if tok.text else "got end of line",
                         tok.line, tok.column, expected=(repr(text),))

    def _expect_ident(self, what: str = "identifier") -> Token:
        tok = self._peek()
        if tok.kind == "ident":
            return self._next()
        raise ParseError(f"got {tok.text!r}" if tok.text else "got end of line",
                         tok.line, tok.column, expected=(what,))

    def _skip_newlines(self) -> None:
        while self._peek().kind == "newline":
            self._next()

    def _end_statement(self) -> None:
        tok = self._peek()
        if tok.kind in ("newline", "eof"):
            if tok.kind == "newline":
                self._next()
            return
        raise ParseError(f"unexpected {tok.text!r} after statement",
                         tok.line, tok.column, expected=("end of line",))

    # Statements ----------------------------------------------------------

    def parse_program(self) -> list[tuple]:
        statements: list[tuple] = []
        self._skip_newlines()
        while self._peek().kind != "eof":
            statements.append(self._statement())
            self._skip_newlines()
        return statements

    def _statement(self) -> tuple:
        head = self._expect_ident("statement")
        if head.text == "input":
            return self._input_statement(head)
        if head.text == "param":
            return self._param_statement(head)
        if head.text == "output":
            name = self._expect_ident()
            self._expect("=")
            expr = self._expression()
            self._end_statement()
            return ("output", name, expr)
        # assignment
        self._expect("=")
        expr = self._expression()
        self._end_statement()
        return ("assign", head, expr)

    def _input_statement(self, head: Token) -> tuple:
        name = self._expect_ident()
        self._expect("~")
        family = self._expect_ident("Normal or Uniform")
        if family.text not in ("Normal", "Uniform"):
            raise ParseError(f"unknown distribution '{family.text}'",
                             family.line, family.column, expected=("Normal", "Uniform"))
        self._expect("(")
        a = self._signed_real()
        self._expect(",")
        b = self._signed_real()
        self._expect(")")
        self._end_statement()
        return ("input", name, family.text, a, b)

    def _param_statement(self, head: Token) -> tuple:
        name = self._expect_ident()
        self._expect("=")
        value = self._signed_real()
        self._end_statement()
        return ("param", name, value)

    def _signed_real(self) -> float:
        sign = 1.0
        tok = self._peek()
        if tok.kind == "punct" and tok.text == "-":
            self._next()
            sign = -1.0
        tok = self._peek()
        if tok.kind == "number":
            self._next()
            return sign * float(tok.text)
        if tok.kind == "ident" and tok.text == "pi":
            self._next()
            return sign * math.pi
        raise ParseError(f"got {tok.text!r}" if tok.text else "got end of line",
                         tok.line, tok.column, expected=("number",))

    # Expressions ---------------------------------------------------------

    def _expression(self):
        return self._additive()

    def _additive(self):
        node = self._multiplicative()
        while self._peek().kind == "punct" and self._peek().text in "+-":
            tok = self._next()
            rhs = self._multiplicative()
            node = Binary("add" if tok.text == "+" else "sub", node, rhs,
                          tok.line, tok.column)
        return node

    def _multiplicative(self):
        node = self._unary()
        while self._peek().kind == "punct" and self._peek().text in "*/":
            tok = self._next()
            rhs = self._unary()
            node = Binary("mul" if tok.text == "*" else "div", node, rhs,
                          tok.line, tok.column)
        return node

    def _unary(self):
        tok = self._peek()
        if tok.kind == "punct" and tok.text == "-":
            self._next()
            operand = self._unary()
            if isinstance(operand, Num):
                # A sign directly on a literal is part of the literal.
                return Num(-operand.value, tok.line, tok.column)
            return Unary("neg", operand, tok.line, tok.column)
        return self._power()

    def _power(self):
        base = self._primary()
        tok = self._peek()
        if tok.kind == "punct" and tok.text == "^":
            self._next()
            exponent = self._unary()  # right-associative, allows 2^-3
            return Binary("pow", base, exponent, tok.line, tok.column)
        return base

    def _primary(self):
        tok = self._peek()
        if tok.kind == "number":
            self._next()
            return Num(float(tok.text), tok.line, tok.column)
        if tok.kind == "ident":
            self._next()
            if tok.text == "pi":
                return Num(math.pi, tok.line, tok.column)
            if self._peek().kind == "punct" and self._peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{tok.text}'",
                                     tok.line, tok.column, expected=FUNCTIONS)
                self._next()
                arg = self._expression()
                self._expect(")")
                return Call(tok.text, arg, tok.line, tok.column)
            return Ref(tok.text, tok.line, tok.column)
        if tok.kind == "punct" and tok.text == "(":
            self._next()
            node = self._expression()
            self._expect(")")
            return Paren(node)
        raise ParseError(f"got {tok.text!r}" if tok.text else "got end of line",
                         tok.line, tok.column,
                         expected=("number", "name", "function call", "'('"))


class _Lowerer:
    def __init__(self):
        self.builder = GraphBuilder()
        self.env: dict[str, int] = {}

    def _define(self, tok: Token) -> str:
        name = tok.text
        if name == "pi" or name in _KEYWORDS or name in FUNCTIONS:
            raise ParseError(f"'{name}' is reserved", tok.line, tok.column)
        if name in self.env:
            raise DuplicateNameError(name, tok.line, tok.column)
        return name

    def run(self, statements: list[tuple]) -> Graph:
        for stmt in statements:
            kind = stmt[0]
            if kind == "input":
                _, tok, family, a, b = stmt
                name = self._define(tok)
                dist = Normal(a, b) if family == "Normal" else Uniform(a, b)
                self.env[name] = self.builder.add_uncertain_input(name, dist)
            elif kind == "param":
                _, tok, value = stmt
                name = self._define(tok)
                self.env[name] = self.builder.add_constant(value, name=name)
            elif kind in ("assign", "output"):
                _, tok, expr = stmt
                name = self._define(tok)
                fresh_before = self.builder._next_id
                vid = self.env[name] = self.lower(expr)
                if vid >= fresh_before:
                    # The statement created this variable; give it the user's name.
                    self.builder.rename(vid, name)
                if kind == "output":
                    self.builder.mark_output(vid)
        return self.builder.build()

    def lower(self, node) -> int:
        if isinstance(node, Paren):
            return self.lower(node.inner)
        if isinstance(node, Num):
            return self.builder.add_constant(node.value)
        if isinstance(node, Ref):
            try:
                return self.env[node.name]
            except KeyError:
                raise UndefinedNameError(node.name, node.line, node.column) from None
        if isinstance(node, Unary):
            return self.builder.add_operation("neg", [self.lower(node.operand)])
        if isinstance(node, Call):
            return self.builder.add_operation(node.func, [self.lower(node.arg)])
        if isinstance(node, Binary):
            if node.op == "pow":
                exponent = _unwrap_parens(node.right)
                if isinstance(exponent, Num):
                    base = self.lower(node.left)
                    return self.builder.add_operation(
                        "pow_const", [base], exponent=exponent.value)
                # General power: a^b = exp(b * log(a)).
                base = self.lower(node.left)
                expo = self.lower(node.right)
                log_base = self.builder.add_operation("log", [base])
                product = self.builder.add_operation("mul", [expo, log_base])
                return self.builder.add_operation("exp", [product])
            left = self.lower(node.left)
            right = self.lower(node.right)
            return self.builder.add_operation(node.op, [left, right])
        raise TypeError(f"unexpected AST node {node!r}")


def parse_model(text: str) -> Graph:
    """Parse model source text into a Graph.

    Raises ParseError with line/column on malformed input, plus
    UndefinedNameError / DuplicateNameError during name resolution.
    Lowering is deterministic: the same text always produces the same
    node id assignment.
    """
    statements = _Parser(_tokenize(text)).parse_program()
    return _Lowerer().run(statements)


def parse_model_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


# Pretty printing ----------------------------------------------------------


def _format_real(value: float) -> str:
    text = repr(float(value))
    return f"({text})" if value < 0 else text


def pretty_print(graph: Graph) -> str:
    """Render a graph back to model source.

    Re-parsing the result yields a graph isomorphic to the input (same
    operations, kinds, wiring, and distributions); names are preserved
    where they are unique.  Expand operations have no surface syntax, so
    only untransformed graphs can be printed.
    """
    if graph.has_expansions():
        raise ValueError("cannot pretty-print a graph containing expand operations")

    names: dict[int, str] = {}
    used: set[str] = set()

    def assign_name(var_id: int) -> str:
        base = graph.variable_by_id[var_id].name
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", base) or base == "pi" \
                or base in _KEYWORDS or base in FUNCTIONS:
            base = f"v{var_id}"
        name = base
        while name in used:
            name = f"{base}_{var_id}"
            base = name
        used.add(name)
        names[var_id] = name
        return name

    # How many operand slots read each variable.
    slot_counts: dict[int, int] = {v.id: 0 for v in graph.variables}
    for op in graph.operations:
        for vid in op.inputs:
            slot_counts[vid] += 1

    output_set = set(graph.outputs)
    lines: list[str] = []

    for vid, dist in graph.uncertain_inputs:
        name = assign_name(vid)
        if isinstance(dist, Normal):
            lines.append(f"input {name} ~ Normal({dist.mean!r}, {dist.stddev!r})")
        else:
            lines.append(f"input {name} ~ Uniform({dist.lower!r}, {dist.upper!r})")

    # Constants referenced once inline at their operand slot; the rest
    # (shared, unused, or output-aliased) become param declarations.
    inline_constants: set[int] = set()
    for var in graph.variables:
        if var.kind != "constant":
            continue
        if slot_counts[var.id] == 1 and var.id not in output_set:
            inline_constants.add(var.id)
        else:
            lines.append(f"param {assign_name(var.id)} = {var.constant_value!r}")

    def operand(vid: int) -> str:
        if vid in inline_constants:
            return _format_real(graph.variable_by_id[vid].constant_value)
        return names[vid]

    def render(op: OperationNode) -> str:
        if op.kind == "neg":
            # A minus sign directly on a literal would fold into it.
            text = operand(op.inputs[0])
            return f"-({text})" if op.inputs[0] in inline_constants else f"-{text}"
        if op.kind == "pow_const":
            return f"{operand(op.inputs[0])} ^ {_format_real(op.exponent)}"
        if op.kind in ("add", "sub", "mul", "div"):
            symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op.kind]
            return f"{operand(op.inputs[0])} {symbol} {operand(op.inputs[1])}"
        return f"{op.kind}({operand(op.inputs[0])})"

    for op in graph.order:
        name = assign_name(op.output)
        prefix = "output " if op.output in output_set else ""
        lines.append(f"{prefix}{name} = {render(op)}")

    # Outputs that alias an input or a constant have no producing statement.
    producer = graph.producer_of
    for vid in graph.outputs:
        if vid in producer:
            continue
        alias = names.get(vid) or assign_name(vid)
        out_name = alias + "_out"
        while out_name in used:
            out_name += "_"
        used.add(out_name)
        lines.append(f"output {out_name} = {alias}")

    return "\n".join(lines) + "\n"


# Structural equivalence ---------------------------------------------------


def _canonical_form(graph: Graph):
    canonical: dict[int, int] = {}
    counter = 0

    def assign(vid: int) -> int:
        nonlocal counter
        canonical[vid] = counter
        counter += 1
        return canonical[vid]

    for vid, _ in graph.uncertain_inputs:
        assign(vid)

    constants: list[tuple[int, float]] = []
    ops_form: list[tuple] = []
    for op in graph.order:
        input_ids = []
        for vid in op.inputs:
            if vid not in canonical:
                var = graph.variable_by_id[vid]
                if var.kind != "constant":
                    return None  # dangling reference; structurally invalid
                constants.append((assign(vid), var.constant_value))
            input_ids.append(canonical[vid])
        out_id = assign(op.output)
        ops_form.append((op.kind, op.exponent, op.expand_from, op.expand_to,
                         tuple(input_ids), out_id))

    outputs_form = []
    for vid in graph.outputs:
        if vid not in canonical:
            var = graph.variable_by_id[vid]
            if var.kind == "constant":
                constants.append((assign(vid), var.constant_value))
            else:
                assign(vid)
        outputs_form.append(canonical[vid])
    outputs_form.sort()  # output identity matters, declaration order does not

    leftovers = sorted(
        (var.kind, var.constant_value)
        for var in graph.variables if var.id not in canonical)

    kinds = tuple(sorted(
        (canonical[var.id], var.kind)
        for var in graph.variables if var.id in canonical))

    return (graph.distributions, tuple(ops_form), tuple(constants),
            tuple(outputs_form), tuple(leftovers), kinds)


def isomorphic(a: Graph, b: Graph) -> bool:
    """Structural equivalence: same operations, kinds, wiring, constants,
    distributions, and outputs, up to node renumbering and renaming."""
    form_a = _canonical_form(a)
    form_b = _canonical_form(b)
    return form_a is not None and form_a == form_b
