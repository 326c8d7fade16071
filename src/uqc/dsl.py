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

A statement names the variable it creates, and an output statement also
records its name as the output's, under which reports key the value.  A
variable an earlier statement made keeps its own name, so `output f = x`
reports `f` while `x` still labels its axis; a second output of one
variable is an error.

pretty_print is the parser's inverse, outputs last and in declared order,
and isomorphic compares graphs with their outputs in order, matching
nodes in evaluation order.

The text is tokenized in full before parsing starts, and a name or value
error is held until the parse ends, so an unexpected character is
reported ahead of any syntax error, and any syntax error ahead of the
first undefined, duplicate or reserved name, repeated output,
out-of-range number or invalid distribution.  A token holds its kind, text
and index only; the line and column of an error come from a second scan
of the text, made only when a parse fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple
from itertools import repeat
from typing import NamedTuple

from .distributions import Normal, Uniform
from .errors import CycleError, DuplicateNameError, ParseError, UndefinedNameError
from .graph import Graph, GraphBuilder, OperationNode

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
# Names no statement may define.
_RESERVED = frozenset(("input", "param", "output", "pi", *FUNCTIONS))
# Distribution family name -> its class, whose fields are the two parameters.
_FAMILIES = {family.__name__: family for family in (Normal, Uniform)}
# Operator symbol -> (operation kind, precedence level).
_BINARY_OPERATORS = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2)}
_TOP_LEVEL = 2  # the highest of those levels
_SYMBOLS = {kind: symbol for symbol, (kind, _) in _BINARY_OPERATORS.items()}

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# One token, or a comment, after any blanks.  A character that starts
# neither matches alone and is an error.
_TOKEN_RE = re.compile(rf"""[ \t]*(
    {_NAME}
  | [-+*/^()=,~\n]
  | [0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?|[0-9]+(?:[eE][+-]?[0-9]+)?
  | \#[^\n]*
  | [^ \t]
)""", re.VERBOSE)

# A token's kind follows from its first character, except for a lone '.',
# which starts no number and is an error.
_KIND_OF_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident"),
    **dict.fromkeys("0123456789.", "number"),
    **dict.fromkeys("-+*/^()=,~", "punct"),
    "\n": "newline",
}

# Stands in for the variable of a name that failed to resolve, so parsing
# can go on to find any syntax error after it.
_MISSING = -1


class Token(NamedTuple):
    kind: str   # 'number' | 'ident' | 'punct' | 'newline' | 'eof'
    text: str
    index: int  # position in the token list; _token_positions has its line and column


def _tokenize(text: str) -> list[Token]:
    """Every token of the text, then a newline and an eof token.  Blanks
    and tabs are matched as the prefix of the token after them, so they
    cost no match of their own; blanks at the end of the text match
    nothing.  Kinds come from the first character, and no match object is
    made: where a token is, is worked out only for an error."""
    words = _TOKEN_RE.findall(text)
    if "#" in text:  # only a comment holds one
        words = [word for word in words if word[0] != "#"]
    kinds = [_KIND_OF_FIRST.get(word[0], "error") if word != "." else "error"
             for word in words]
    words += ("\n", "")
    kinds += ("newline", "eof")
    # Token tuples made in C: tuple.__new__(Token, (kind, word, index)).
    tokens = list(map(tuple.__new__, repeat(Token), zip(kinds, words, range(len(words)))))
    if "error" in kinds:
        first = tokens[kinds.index("error")]
        raise ParseError(f"unexpected character {first.text!r}",
                         *_token_positions(text)[first.index])
    return tokens


def _token_positions(text: str) -> list[tuple[int, int]]:
    """(line, column) of each token of _tokenize(text), by index: the final
    newline sits after the last character and eof at column 1 of the last
    line."""
    positions = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        if m[1][0] == "#":
            continue
        start = m.start(1)
        positions.append((line, start - line_start + 1))
        if m[1] == "\n":
            line, line_start = line + 1, start + 1
    positions += [(line, len(text) - line_start + 1), (line, 1)]
    return positions


class _Parser:
    """Recursive descent that lowers each statement as it reads it.

    An expression yields a variable id, or a float for a literal not yet in
    the graph, so that a sign can fold into it and an exponent can become
    pow_const; anywhere else a literal becomes a constant node where the
    depth-first, left-to-right walk of the expression meets it.  The first
    name or value error is held until the parse ends, so that any syntax
    error in the text is reported ahead of it.
    """

    def __init__(self, text: str):
        self._text = text
        self._positions: list[tuple[int, int]] | None = None
        self._tokens = tokens = _tokenize(text)
        self._pos = 0
        self._tok = tokens[0]  # the current token; eof once the text is read
        self._builder = GraphBuilder()
        self._env: dict[str, int] = {}
        self._error: Exception | None = None

    def _next(self) -> Token:
        tok = self._tok
        if tok.kind != "eof":
            self._pos += 1
            self._tok = self._tokens[self._pos]
        return tok

    def _at(self, tok: Token) -> tuple[int, int]:
        """The token's line and column, found once the parse needs one."""
        if self._positions is None:
            self._positions = _token_positions(self._text)
        return self._positions[tok.index]

    def _unexpected(self, tok: Token, *expected: str) -> ParseError:
        got = "end of line" if tok.kind in ("newline", "eof") else repr(tok.text)
        return ParseError(f"got {got}", *self._at(tok), expected=expected)

    def _expect(self, text: str) -> Token:
        if self._tok.text == text:
            return self._next()
        raise self._unexpected(self._tok, repr(text))

    def _expect_ident(self, what: str = "identifier") -> Token:
        if self._tok.kind == "ident":
            return self._next()
        raise self._unexpected(self._tok, what)

    def _skip_newlines(self) -> None:
        while self._tok.kind == "newline":
            self._next()

    def _end_statement(self) -> None:
        tok = self._tok
        if tok.kind == "newline":
            self._next()
        elif tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after statement",
                             *self._at(tok), expected=("end of line",))

    # Names and values ----------------------------------------------------

    def _hold(self, error: Exception) -> None:
        if self._error is None:
            self._error = error

    def _define(self, tok: Token) -> str:
        name = tok.text
        if name in _RESERVED:
            self._hold(ParseError(f"'{name}' is reserved", *self._at(tok)))
        elif name in self._env:
            self._hold(DuplicateNameError(name, *self._at(tok)))
        return name

    def _lookup(self, tok: Token) -> int:
        vid = self._env.get(tok.text, _MISSING)
        if vid == _MISSING:
            self._hold(UndefinedNameError(tok.text, *self._at(tok)))
        return vid

    def _number(self, tok: Token) -> float:
        value = float(tok.text)
        if math.isinf(value):
            self._hold(ParseError("number out of range", *self._at(tok)))
        return value

    def _variable(self, value: int | float) -> int:
        """The variable id of an expression's value; a literal becomes a
        constant node here."""
        return self._builder.add_constant(value) if isinstance(value, float) else value

    # Statements ----------------------------------------------------------

    def parse_program(self) -> Graph:
        self._skip_newlines()
        while self._tok.kind != "eof":
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
        vid = self._variable(self._expression(1))
        self._end_statement()
        self._env[name] = vid
        if vid >= fresh_before:
            # The statement created this variable; give it the user's name.
            self._builder.rename(vid, name)
        if is_output:
            if vid in self._builder._outputs:
                self._hold(ParseError(f"output '{name}' names a value that is already "
                                      "an output", *self._at(head)))
            self._builder.mark_output(vid, name)

    def _input_statement(self) -> None:
        name = self._define(self._expect_ident())
        self._expect("~")
        family = self._expect_ident(" or ".join(_FAMILIES))
        if family.text not in _FAMILIES:
            raise ParseError(f"unknown distribution '{family.text}'",
                             *self._at(family), expected=tuple(_FAMILIES))
        self._expect("(")
        a = self._signed_real()
        self._expect(",")
        b = self._signed_real()
        self._expect(")")
        self._end_statement()
        try:
            dist = _FAMILIES[family.text](a, b)
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
        if self._tok.text == "-":
            self._next()
            sign = -1.0
        tok = self._tok
        if tok.kind == "number":
            self._next()
            return sign * self._number(tok)
        if tok.kind == "ident" and tok.text == "pi":
            self._next()
            return sign * math.pi
        raise self._unexpected(tok, "number")

    # Expressions ---------------------------------------------------------

    def _expression(self, level: int) -> int | float:
        """Precedence climbing over the left-associative binary operators
        of `level` and above: `+ -` are level 1, `* /` level 2.  A left
        operand becomes a variable before its right operand is read.  Above
        the top level an expression is a unary one, read directly."""
        value = self._unary()
        binary = _BINARY_OPERATORS.get(self._tok.text)
        while binary is not None and binary[1] >= level:
            self._next()
            left = self._variable(value)
            above = binary[1] + 1
            right = self._variable(self._expression(above) if above <= _TOP_LEVEL
                                   else self._unary())
            value = self._builder.add_operation(binary[0], (left, right))
            binary = _BINARY_OPERATORS.get(self._tok.text)
        return value

    def _unary(self) -> int | float:
        """A signed operand, or a primary with its `^` exponent: `^` is
        right-associative and binds tighter than a sign on its left, and
        its exponent may carry a sign, as in 2^-3."""
        if self._tok.text == "-":
            self._next()
            parenthesized = self._tok.text == "("
            operand = self._unary()
            if isinstance(operand, float) and not parenthesized:
                # A sign directly on a literal is part of the literal; -(3) is a neg.
                return -operand
            return self._builder.add_operation("neg", (self._variable(operand),))
        base = self._primary()
        if self._tok.text != "^":
            return base
        self._next()
        base = self._variable(base)
        exponent = self._unary()
        if isinstance(exponent, float):
            return self._builder.add_operation("pow_const", (base,), exponent=exponent)
        # General power: a^b = exp(b * log(a)).
        log_base = self._builder.add_operation("log", (base,))
        product = self._builder.add_operation("mul", (exponent, log_base))
        return self._builder.add_operation("exp", (product,))

    def _primary(self) -> int | float:
        tok = self._next()
        if tok.kind == "number":
            return self._number(tok)
        if tok.kind == "ident":
            if tok.text == "pi":
                return math.pi
            if self._tok.text != "(":
                return self._lookup(tok)
            if tok.text not in FUNCTIONS:
                raise ParseError(f"unknown function '{tok.text}'",
                                 *self._at(tok), expected=FUNCTIONS)
            self._next()
            arg = self._variable(self._expression(1))
            self._expect(")")
            return self._builder.add_operation(tok.text, (arg,))
        if tok.text == "(":
            value = self._expression(1)
            self._expect(")")
            return value
        raise self._unexpected(tok, "number", "name", "function call", "'('")


def parse_model(text: str) -> Graph:
    """Parse model source text into a Graph, lowering each statement as it
    is read.

    Raises ParseError with line/column on malformed input, a number
    literal too large for a float or a second output of one value, and
    its subclasses UndefinedNameError / DuplicateNameError for names that
    do not resolve, and ValueError for invalid distribution parameters.  An
    unexpected character is reported first, then the first syntax error,
    then the first name or value error.  Lowering is deterministic: the
    same text always produces the same node id assignment.
    """
    return _Parser(text).parse_program()


def parse_model_file(path) -> Graph:
    """Parse a .uq file; a UTF-8 byte-order mark at its start is skipped."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_model(handle.read())


# Pretty printing ----------------------------------------------------------


def _format_real(value: float) -> str:
    text = repr(float(value))
    return f"({text})" if text.startswith("-") else text


def pretty_print(graph: Graph) -> str:
    """Render a graph back to model source: inputs, parameters, one
    assignment per operation in evaluation order, then one `output NAME =
    VAR` statement per output, in the order of graph.outputs.

    Re-parsing the result yields an isomorphic graph with the same output
    names.  Those names are reserved first, so a variable of the same name,
    such as the one an output statement created, is printed under another.
    Other names are kept where they are valid and unique, as in any parsed
    graph.  Expand operations have no surface syntax, so only untransformed
    graphs can be printed.
    """
    names: dict[int, str] = {}
    used: set[str] = set()

    def assign_name(var_id: int, name: str | None = None) -> str:
        name = graph.variable_by_id[var_id].name if name is None else name
        if not re.fullmatch(_NAME, name) or name in _RESERVED:
            name = f"v{var_id}"
        while name in used:
            name += "_"
        used.add(name)
        return name

    # How many operand slots read each variable.
    slot_counts: dict[int, int] = {v.id: 0 for v in graph.variables}
    for op in graph.order:  # refuses a graph validate refuses
        for vid in op.inputs:
            slot_counts[vid] += 1
    if graph.has_expansions():
        raise ValueError("cannot pretty-print a graph containing expand operations")

    declared = [assign_name(vid, name) for vid, name in zip(graph.outputs, graph.output_names)]
    lines: list[str] = []
    for vid, dist in graph.uncertain_inputs:
        names[vid] = assign_name(vid)
        a, b = astuple(dist)
        lines.append(f"input {names[vid]} ~ {type(dist).__name__}({a!r}, {b!r})")

    # Constants referenced once inline at their operand slot; the rest
    # (shared, unused, or outputs) become param declarations.
    output_set = set(graph.outputs)
    inline_constants: set[int] = set()
    for var in graph.variables:
        if var.constant_value is None:
            continue
        if slot_counts[var.id] == 1 and var.id not in output_set:
            inline_constants.add(var.id)
        else:
            names[var.id] = assign_name(var.id)
            lines.append(f"param {names[var.id]} = {var.constant_value!r}")

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
        if op.kind in _SYMBOLS:
            return f"{operand(op.inputs[0])} {_SYMBOLS[op.kind]} {operand(op.inputs[1])}"
        return f"{op.kind}({operand(op.inputs[0])})"

    for op in graph.order:
        names[op.output] = assign_name(op.output)
        lines.append(f"{names[op.output]} = {render(op)}")
    lines += [f"output {name} = {names[vid]}" for name, vid in zip(declared, graph.outputs)]
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

    def place(vid: int) -> int:
        """Canonical id of an operand or output, placing a constant at its
        first read; Graph.order has refused any other unplaced id."""
        if vid not in canonical:
            constants.append((assign(vid), graph.variable_by_id[vid].constant_value))
        return canonical[vid]

    ops_form: list[tuple] = []
    for op in graph.order:
        input_ids = tuple(map(place, op.inputs))
        ops_form.append((op.kind, op.exponent, op.expand_to, input_ids, assign(op.output)))

    outputs_form = tuple(map(place, graph.outputs))

    # Unread constants, by value.
    leftovers = sorted(var.constant_value for var in graph.variables if var.id not in canonical)

    return (graph.distributions, tuple(ops_form), tuple(constants),
            outputs_form, tuple(leftovers))


def isomorphic(a: Graph, b: Graph) -> bool:
    """Structural equivalence: same operations, kinds, wiring, constants,
    distributions, and outputs in the same order (the first is the one
    the estimators study), up to node ids and names.  Nodes are matched
    in evaluation order (graph.order), so two graphs that list the same
    independent operations in another order compare False.  A graph
    validate refuses is isomorphic to no graph, itself included."""
    try:
        return _canonical_form(a) == _canonical_form(b)
    except (ValueError, CycleError):  # Graph.order refuses the graph
        return False
