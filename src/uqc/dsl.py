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
out-of-range number or invalid distribution.  A token is its text alone,
in a plain list the descent walks by index, and its sort follows from its
first character; the line and column of an error come from a second scan
of the text, made only when a parse fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple

from .distributions import Distribution, Normal, Uniform
from .errors import CycleError, DuplicateNameError, ParseError, UndefinedNameError
from .graph import Graph, OperationNode, VariableNode, _new_node

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
_COMMENT_RE = re.compile(r"#[^\n]*")
# A character that no token but an error holds, outside comments.
_BAD_CHARACTER_RE = re.compile(r"[^A-Za-z0-9_ \t\n.+\-*/^()=,~]")

# A token's sort follows from its first character; a lone '.' starts no
# number and is an error.
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("0123456789.")

# Stands in for the variable of a name that failed to resolve, so parsing
# can go on to find any syntax error after it.
_MISSING = -1


def _tokenize(text: str) -> list[str]:
    """The text of every token, then a newline and an eof token, "".
    Blanks and tabs are matched as the prefix of the token after them, so
    they cost no match of their own; blanks at the end of the text match
    nothing.  Comments are cut out first, which splits no token.  No
    match object is made: where a token is, is worked out only for an
    error."""
    source = _COMMENT_RE.sub("", text) if "#" in text else text
    words = _TOKEN_RE.findall(source)
    words += ("\n", "")
    if "." in words or _BAD_CHARACTER_RE.search(source):
        index = next(index for index, word in enumerate(words)
                     if word == "." or _BAD_CHARACTER_RE.match(word))
        raise ParseError(f"unexpected character {words[index]!r}",
                         *_token_positions(text)[index])
    return words


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
    # Recursive descent over `words` from the cursor `pos`.  An expression
    # yields a variable id, or a float for a literal not yet in the graph,
    # so that a sign can fold into it and an exponent can become pow_const;
    # anywhere else a literal becomes a constant node where the depth-first,
    # left-to-right walk meets it.  Nodes are appended as they are made.
    # The first name or value error is held in `error` until the parse
    # ends, so that any syntax error in the text is reported ahead of it.
    words = _tokenize(text)
    pos = 0
    next_id = 0
    variables: list[VariableNode] = []
    operations: list[OperationNode] = []
    uncertain: list[tuple[int, Distribution]] = []
    outputs: dict[int, str] = {}  # variable id -> the name it is reported under
    env: dict[str, int] = {}
    error: Exception | None = None
    positions: list[tuple[int, int]] | None = None

    def at(index: int) -> tuple[int, int]:
        """The line and column of token `index`, found once the parse needs one."""
        nonlocal positions
        if positions is None:
            positions = _token_positions(text)
        return positions[index]

    def unexpected(index: int, *expected: str) -> ParseError:
        word = words[index]
        got = "end of line" if word in ("\n", "") else repr(word)
        return ParseError(f"got {got}", *at(index), expected=expected)

    def expect(word: str) -> None:
        nonlocal pos
        if words[pos] != word:
            raise unexpected(pos, repr(word))
        pos += 1

    def name(what: str = "identifier") -> int:
        """The index of the name at the cursor, which passes it."""
        nonlocal pos
        if words[pos][:1] not in _NAME_START:
            raise unexpected(pos, what)
        pos += 1
        return pos - 1

    def end_statement() -> None:
        nonlocal pos
        word = words[pos]
        if word == "\n":
            pos += 1
        elif word:
            raise ParseError(f"unexpected {word!r} after statement", *at(pos),
                             expected=("end of line",))

    def hold(exc: Exception) -> None:
        nonlocal error
        if error is None:
            error = exc

    def define(index: int) -> str:
        word = words[index]
        if word in _RESERVED:
            hold(ParseError(f"'{word}' is reserved", *at(index)))
        elif word in env:
            hold(DuplicateNameError(word, *at(index)))
        return word

    def number(index: int) -> float:
        value = float(words[index])
        if math.isinf(value):
            hold(ParseError("number out of range", *at(index)))
        return value

    def signed_real() -> float:
        nonlocal pos
        sign = 1.0
        if words[pos] == "-":
            pos += 1
            sign = -1.0
        word = words[pos]
        if word[:1] in _NUMBER_START:
            pos += 1
            return sign * number(pos - 1)
        if word == "pi":
            pos += 1
            return sign * math.pi
        raise unexpected(pos, "number")

    def constant(value: float, label: str | None = None) -> int:
        nonlocal next_id
        vid = next_id
        next_id = vid + 1
        variables.append(_new_node(VariableNode, (vid, label or f"_c{vid}", value)))
        return vid

    def emit(kind: str, inputs: tuple[int, ...], exponent: float | None = None) -> int:
        """Append an operation and its output variable; returns the output's id."""
        nonlocal next_id
        vid = next_id + 1
        next_id += 2
        operations.append(_new_node(OperationNode, (vid - 1, kind, inputs, vid, exponent, None)))
        variables.append(_new_node(VariableNode, (vid, f"_t{vid}", None)))
        return vid

    def variable(value: int | float) -> int:
        """The variable id of an expression's value; a literal becomes a
        constant node here."""
        return constant(value) if value.__class__ is float else value

    def expression(level: int) -> int | float:
        """Precedence climbing over the left-associative binary operators
        of `level` and above: `+ -` are level 1, `* /` level 2.  A left
        operand becomes a variable before its right operand is read.  Above
        the top level an expression is a unary one, read directly."""
        nonlocal pos
        value = unary()
        binary = _BINARY_OPERATORS.get(words[pos])
        while binary is not None and binary[1] >= level:
            pos += 1
            left = constant(value) if value.__class__ is float else value
            above = binary[1] + 1
            right = expression(above) if above <= _TOP_LEVEL else unary()
            if right.__class__ is float:
                right = constant(right)
            value = emit(binary[0], (left, right))
            binary = _BINARY_OPERATORS.get(words[pos])
        return value

    def unary() -> int | float:
        """A signed operand, or a primary (a number, pi, a name, a call or a
        parenthesized expression) with its `^` exponent: `^` is
        right-associative and binds tighter than a sign on its left, and
        its exponent may carry a sign, as in 2^-3."""
        nonlocal pos
        index = pos
        word = words[index]
        pos += 1
        if word == "-":
            parenthesized = words[pos] == "("
            operand = unary()
            if operand.__class__ is float and not parenthesized:
                # A sign directly on a literal is part of the literal; -(3) is a neg.
                return -operand
            return emit("neg", (variable(operand),))
        first = word[:1]
        if first in _NAME_START:
            if word == "pi":
                base = math.pi
            elif words[pos] != "(":
                base = env.get(word, _MISSING)
                if base == _MISSING:
                    hold(UndefinedNameError(word, *at(index)))
            elif word not in FUNCTIONS:
                raise ParseError(f"unknown function '{word}'", *at(index), expected=FUNCTIONS)
            else:
                pos += 1
                base = emit(word, (variable(expression(1)),))
                expect(")")
        elif first in _NUMBER_START:
            base = number(index)
        elif word == "(":
            base = expression(1)
            expect(")")
        else:
            raise unexpected(index, "number", "name", "function call", "'('")
        if words[pos] != "^":
            return base
        pos += 1
        base = variable(base)
        exponent = unary()
        if exponent.__class__ is float:
            return emit("pow_const", (base,), exponent)
        # General power: a^b = exp(b * log(a)).
        return emit("exp", (emit("mul", (exponent, emit("log", (base,)))),))

    # Statements.
    while words[pos]:
        if words[pos] == "\n":
            pos += 1
            continue
        head = name("statement")
        keyword = words[head]
        if keyword == "input":
            label = define(name())
            expect("~")
            family = name(" or ".join(_FAMILIES))
            if words[family] not in _FAMILIES:
                raise ParseError(f"unknown distribution '{words[family]}'",
                                 *at(family), expected=tuple(_FAMILIES))
            expect("(")
            a = signed_real()
            expect(",")
            b = signed_real()
            expect(")")
            end_statement()
            try:
                dist = _FAMILIES[words[family]](a, b)
            except ValueError as exc:
                hold(exc)
            else:
                env[label] = vid = next_id
                next_id += 1
                variables.append(_new_node(VariableNode, (vid, label, None)))
                uncertain.append((vid, dist))
        elif keyword == "param":
            label = define(name())
            expect("=")
            value = signed_real()
            end_statement()
            env[label] = constant(value, label)
        else:
            if keyword == "output":
                head = name()
            expect("=")
            label = define(head)
            fresh_before = next_id
            vid = variable(expression(1))
            end_statement()
            env[label] = vid
            if vid >= fresh_before:
                # The statement created this variable, the last one made;
                # give it the user's name.
                variables[-1] = _new_node(VariableNode, (vid, label, variables[-1].constant_value))
            if keyword == "output":
                if vid in outputs:
                    hold(ParseError(f"output '{label}' names a value that is already "
                                    "an output", *at(head)))
                outputs[vid] = label
    if error is not None:
        raise error
    return Graph(tuple(variables), tuple(operations), tuple(uncertain),
                 tuple(outputs), tuple(outputs.values()))


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
