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

One recursive-descent pass lowers each statement as it reads it, emitting
one elementary operation per operator or call in the depth-first, left to
right order of the expression; constant subexpressions stay in the graph
as constant nodes (no folding).  Two special cases: a minus sign directly
on a numeric literal is part of the literal (no neg operation, but `-(3)`
is one), and `a ^ b` becomes a pow_const operation when b is a literal,
bare or parenthesized, but is rewritten as exp(b * log(a)) otherwise.

The text is tokenized in full before parsing starts, and a name or value
error is held until the parse ends, so an unexpected character is
reported ahead of any syntax error, and any syntax error ahead of the
first undefined, duplicate or reserved name, out-of-range number or
invalid distribution.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .distributions import Normal, Uniform
from .errors import DuplicateNameError, ParseError, UndefinedNameError
from .graph import Graph, GraphBuilder, OperationNode

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
_KEYWORDS = ("input", "param", "output")
_BINARY_KINDS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}

_TOKEN_RE = re.compile(r"""
    (?P<number>[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?|[0-9]+(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[-+*/^()=,~])
  | (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<error>.)
""", re.VERBOSE)

# Stands in for the variable of a name that failed to resolve, so parsing
# can go on to find any syntax error after it.
_MISSING = -1


class Token(NamedTuple):
    kind: str   # 'number' | 'ident' | 'punct' | 'newline' | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        column = m.start() - line_start + 1
        if kind == "error":
            raise ParseError(f"unexpected character {m.group()!r}", line, column)
        if kind == "newline":
            tokens.append(Token("newline", "", line, column))
            line, line_start = line + 1, m.end()
        else:
            tokens.append(Token(kind, m.group(), line, column))
    tokens.append(Token("newline", "", line, len(text) - line_start + 1))
    tokens.append(Token("eof", "", line, 1))
    return tokens


def _unexpected(tok: Token, *expected: str) -> ParseError:
    return ParseError(f"got {tok.text!r}" if tok.text else "got end of line",
                      tok.line, tok.column, expected=expected)


class _Parser:
    """Recursive descent that lowers each statement as it reads it.

    An expression yields a variable id, or a float for a literal not yet in
    the graph, so that a sign can fold into it and an exponent can become
    pow_const; anywhere else a literal becomes a constant node where the
    depth-first, left-to-right walk of the expression meets it.  The first
    name or value error is held until the parse ends, so that any syntax
    error in the text is reported ahead of it.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._builder = GraphBuilder()
        self._env: dict[str, int] = {}
        self._error: Exception | None = None

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._peek()
        if tok.text == text:
            return self._next()
        raise _unexpected(tok, repr(text))

    def _expect_ident(self, what: str = "identifier") -> Token:
        tok = self._peek()
        if tok.kind == "ident":
            return self._next()
        raise _unexpected(tok, what)

    def _skip_newlines(self) -> None:
        while self._peek().kind == "newline":
            self._next()

    def _end_statement(self) -> None:
        tok = self._peek()
        if tok.kind == "newline":
            self._next()
        elif tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after statement",
                             tok.line, tok.column, expected=("end of line",))

    # Names and values ----------------------------------------------------

    def _hold(self, error: Exception) -> None:
        if self._error is None:
            self._error = error

    def _define(self, tok: Token) -> str:
        name = tok.text
        if name == "pi" or name in _KEYWORDS or name in FUNCTIONS:
            self._hold(ParseError(f"'{name}' is reserved", tok.line, tok.column))
        elif name in self._env:
            self._hold(DuplicateNameError(name, tok.line, tok.column))
        return name

    def _lookup(self, tok: Token) -> int:
        vid = self._env.get(tok.text, _MISSING)
        if vid == _MISSING:
            self._hold(UndefinedNameError(tok.text, tok.line, tok.column))
        return vid

    def _number(self, tok: Token) -> float:
        value = float(tok.text)
        if math.isinf(value):
            self._hold(ParseError("number out of range", tok.line, tok.column))
        return value

    def _variable(self, value: int | float) -> int:
        """The variable id of an expression's value; a literal becomes a
        constant node here."""
        return self._builder.add_constant(value) if isinstance(value, float) else value

    # Statements ----------------------------------------------------------

    def parse_program(self) -> Graph:
        self._skip_newlines()
        while self._peek().kind != "eof":
            self._statement()
            self._skip_newlines()
        if self._error is not None:
            raise self._error
        return self._builder.build()

    def _statement(self) -> None:
        head = self._expect_ident("statement")
        if head.text == "input":
            return self._input_statement()
        if head.text == "param":
            return self._param_statement()
        is_output = head.text == "output"
        if is_output:
            head = self._expect_ident()
        self._expect("=")
        name = self._define(head)
        fresh_before = self._builder._next_id
        vid = self._variable(self._expression())
        self._end_statement()
        if vid >= fresh_before:
            # The statement created this variable; give it the user's name.
            self._builder.rename(vid, name)
        self._env[name] = vid
        if is_output:
            self._builder.mark_output(vid)

    def _input_statement(self) -> None:
        name = self._define(self._expect_ident())
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
        try:
            dist = Normal(a, b) if family.text == "Normal" else Uniform(a, b)
        except ValueError as exc:
            return self._hold(exc)
        self._env[name] = self._builder.add_uncertain_input(name, dist)

    def _param_statement(self) -> None:
        name = self._define(self._expect_ident())
        self._expect("=")
        value = self._signed_real()
        self._end_statement()
        self._env[name] = self._builder.add_constant(value, name=name)

    def _signed_real(self) -> float:
        sign = 1.0
        tok = self._peek()
        if tok.kind == "punct" and tok.text == "-":
            self._next()
            sign = -1.0
        tok = self._peek()
        if tok.kind == "number":
            self._next()
            return sign * self._number(tok)
        if tok.kind == "ident" and tok.text == "pi":
            self._next()
            return sign * math.pi
        raise _unexpected(tok, "number")

    # Expressions ---------------------------------------------------------

    def _expression(self) -> int | float:
        return self._left_assoc("+-", self._term)

    def _term(self) -> int | float:
        return self._left_assoc("*/", self._unary)

    def _left_assoc(self, symbols: str, operand) -> int | float:
        value = operand()
        tok = self._peek()
        while tok.kind == "punct" and tok.text in symbols:
            self._next()
            left = self._variable(value)
            value = self._builder.add_operation(
                _BINARY_KINDS[tok.text], [left, self._variable(operand())])
            tok = self._peek()
        return value

    def _unary(self) -> int | float:
        if self._peek().text != "-":
            return self._power()
        self._next()
        parenthesized = self._peek().text == "("
        operand = self._unary()
        if isinstance(operand, float) and not parenthesized:
            # A sign directly on a literal is part of the literal; -(3) is a neg.
            return -operand
        return self._builder.add_operation("neg", [self._variable(operand)])

    def _power(self) -> int | float:
        base = self._primary()
        if self._peek().text != "^":
            return base
        self._next()
        base = self._variable(base)
        exponent = self._unary()  # right-associative, allows 2^-3
        if isinstance(exponent, float):
            return self._builder.add_operation("pow_const", [base], exponent=exponent)
        # General power: a^b = exp(b * log(a)).
        log_base = self._builder.add_operation("log", [base])
        product = self._builder.add_operation("mul", [exponent, log_base])
        return self._builder.add_operation("exp", [product])

    def _primary(self) -> int | float:
        tok = self._next()
        if tok.kind == "number":
            return self._number(tok)
        if tok.kind == "ident":
            if tok.text == "pi":
                return math.pi
            if self._peek().text != "(":
                return self._lookup(tok)
            if tok.text not in FUNCTIONS:
                raise ParseError(f"unknown function '{tok.text}'",
                                 tok.line, tok.column, expected=FUNCTIONS)
            self._next()
            arg = self._variable(self._expression())
            self._expect(")")
            return self._builder.add_operation(tok.text, [arg])
        if tok.text == "(":
            value = self._expression()
            self._expect(")")
            return value
        raise _unexpected(tok, "number", "name", "function call", "'('")


def parse_model(text: str) -> Graph:
    """Parse model source text into a Graph, lowering each statement as it
    is read.

    Raises ParseError with line/column on malformed input or a number
    literal too large for a float, plus UndefinedNameError /
    DuplicateNameError for names that do not resolve, and ValueError for
    invalid distribution parameters.  An unexpected character is reported
    first, then the first syntax error, then the first name or value
    error.  Lowering is deterministic: the same text always produces the
    same node id assignment.
    """
    return _Parser(_tokenize(text)).parse_program()


def parse_model_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


# Pretty printing ----------------------------------------------------------


def _format_real(value: float) -> str:
    text = repr(float(value))
    return f"({text})" if text.startswith("-") else text


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
