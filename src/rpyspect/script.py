"""The .crs script language: tokenizer, parser, AST, static validation, and a
pretty-printer.

Lexical rules: ``//`` starts a comment that runs to the end of the line.
Strings are double-quoted, end on the line they start, and take the JSON
escapes (``\\" \\\\ \\/ \\b \\f \\n \\r \\t`` and ``\\uXXXX`` naming a
non-surrogate code point). Numbers are integers, or reals written
``digits.digits`` with no sign or exponent that a float holds without
overflowing. Identifiers start with a letter or ``_`` and go on with
letters, digits or ``_``; ``true`` and ``false`` are the booleans. One
regex (``_TOKEN``) holds the token rules and one (``_ESCAPE``) the
escapes.

The language is a flat sequence of named-argument calls plus two loop
forms, forEach and forEachUnion, whose argument list ends in a
``{ var -> ... }`` block binding a single integer loop variable usable in
+/- argument arithmetic. A ``use("...").with { ... }`` wrapper is accepted
syntax that only introduces the block scope; it is not preserved in the
AST. Unknown function names, unknown argument names, argument type
mismatches, ``file``/``dir`` names containing NUL and nesting deeper than
``MAX_NESTING`` are rejected at parse-validation time, before anything
runs. Every rejected script raises a ScriptError carrying a line and
column.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, NoReturn, Optional, Union

from .errors import BadArgumentError, ScriptSyntaxError, UnknownFunctionError
from .structs import Frozen

# --- AST ---------------------------------------------------------------


class Var(Frozen):
    __slots__ = ("name",)
    name: str


class BinOp(Frozen):
    __slots__ = ("op", "left", "right")
    op: str  # "+" or "-"
    left: Expr
    right: Expr


# A literal stands for itself, and a list literal is the tuple of its
# items.
Expr = Union[int, float, bool, str, Var, BinOp, tuple]


# A statement's source location takes no part in == or hash.
class Call(Frozen):
    __slots__ = ("name", "args", "line", "col")
    _defaults = {"line": 0, "col": 0}
    _uncompared = ("line", "col")

    name: str
    args: tuple[tuple[str, Expr], ...]
    line: int
    col: int


class Loop(Frozen):
    __slots__ = ("kind", "args", "var", "body", "line", "col")
    _defaults = {"line": 0, "col": 0}
    _uncompared = ("line", "col")

    kind: str  # "forEach" or "forEachUnion"
    args: tuple[tuple[str, Expr], ...]
    var: str
    body: tuple[Statement, ...]
    line: int
    col: int


Statement = Union[Call, Loop]


# --- Registered surface --------------------------------------------------

# Argument types: int, real (int accepted), bool, str, and the list types
# in _SHAPES.
REGISTRY: dict[str, dict[str, tuple]] = {
    "set": {"required": (), "optional": (("n_pct_range", "int"), ("median_range", "int"))},
    "importFile": {
        "required": (("file", "str"), ("type", "str")),
        "optional": (
            ("RPY", "range"),
            ("PY", "range"),
            ("sampling", "str"),
            ("maxCR", "int"),
            ("offset", "int"),
            ("seed", "int"),
        ),
    },
    "analyzeFile": {
        "required": (("file", "str"), ("type", "str")),
        "optional": (("RPY", "range"), ("PY", "range")),
    },
    "info": {"required": (), "optional": ()},
    "cluster": {
        "required": (("threshold", "real"),),
        "optional": (("volume", "bool"), ("page", "bool"), ("DOI", "bool")),
    },
    "merge": {"required": (), "optional": ()},
    "removeCR": {"required": (("N_CR", "intpair"),), "optional": ()},
    "saveFile": {"required": (("file", "str"),), "optional": ()},
    "exportFile": {"required": (("file", "str"), ("type", "str")), "optional": ()},
}

LOOP_ARGS = {"required": (("count", "int"),), "optional": (("dir", "str"),)}
LOOP_KINDS = ("forEach", "forEachUnion")

# The deepest nesting a script may have, counting each "(" and "[" of an
# expression, each "+" or "-" of a chain (a BinOp nests to the left) and
# each block: it keeps every recursive walk of the AST far below Python's
# recursion limit.
MAX_NESTING = 100

# String arguments that name a file or directory.
_PATH_ARGS = ("file", "dir")

# List argument types: the element types, in order. A range is
# [lo, hi, include_unknown]; an intpair is [lo, hi].
_SHAPES = {"range": ("int", "int", "bool"), "intpair": ("int", "int")}


# --- Tokenizer -----------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # IDENT INT REAL STRING BOOL EOF, or the punctuation itself
    value: object
    line: int
    col: int


# One named group per token kind, tried in order (the tokenizer recipe of
# the `re` documentation). \d and \w are the Unicode classes that int() and
# str.isalnum() accept; a WORD must still start with a letter or "_".
_TOKEN = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("NEWLINE", r"\n"),
            ("SKIP", r"[ \t\r]+"),
            ("COMMENT", r"//[^\n]*"),
            ("REAL", r"\d+\.\d+"),
            ("INT", r"\d+"),
            ("WORD", r"\w+"),
            ("STRING", r'"(?:\\.|[^"\\\n])*(?P<CLOSE>"?)'),
            ("PUNCT", r"->|[()\[\]{},:+\-.]"),
            ("OTHER", r"."),
        )
    )
)

_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}

# A backslash and what follows it: a one-letter escape (group 1), a
# non-surrogate \uXXXX (group 2), or, when neither matches, a bad escape.
_ESCAPE = re.compile(
    r"\\(?:([%s])|u((?![dD][89a-fA-F])[0-9a-fA-F]{4}))?" % re.escape("".join(_ESCAPES))
)


def _fail(tok: _Token, message: str) -> NoReturn:
    raise ScriptSyntaxError(message, tok.line, tok.col)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        tok = _Token(kind, lexeme, line, m.start() - line_start + 1)
        # End of text is reported where a trailing comment starts.
        end = m.start() if kind == "COMMENT" else m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind in ("SKIP", "COMMENT"):
            continue
        elif kind == "REAL":
            value = float(lexeme)
            if math.isinf(value):  # pretty() could not write it back
                _fail(tok, "real literal too large")
            tokens.append(tok._replace(value=value))
        elif kind == "INT":
            try:
                tokens.append(tok._replace(value=int(lexeme)))
            except ValueError:  # longer than sys.get_int_max_str_digits()
                _fail(tok, "integer literal too long")
        elif kind == "WORD":
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                _fail(tok, f"unexpected character {lexeme[0]!r}")
            if lexeme in ("true", "false"):
                tokens.append(tok._replace(kind="BOOL", value=lexeme == "true"))
            else:
                tokens.append(tok._replace(kind="IDENT"))
        elif kind == "STRING":
            body = lexeme[1 : len(lexeme) - len(m.group("CLOSE"))]
            value = _unescape(body, line, tok.col + 1)
            if not m.group("CLOSE"):
                _fail(tok, "unterminated string literal")
            tokens.append(tok._replace(value=value))
        elif kind == "PUNCT":
            tokens.append(tok._replace(kind=lexeme))
        else:
            _fail(tok, f"unexpected character {lexeme!r}")
    tokens.append(_Token("EOF", None, line, end - line_start + 1))
    return tokens


def _unescape(body: str, line: int, col: int) -> str:
    """Decode the escapes of a string body whose first character is at
    (line, col)."""

    def decode(m: re.Match) -> str:
        if m.group(1):
            return _ESCAPES[m.group(1)]
        if m.group(2):
            return chr(int(m.group(2), 16))
        bad = body[m.start() : m.start() + 2]
        raise ScriptSyntaxError(f"bad escape {bad}", line, col + m.start())

    return _ESCAPE.sub(decode, body)


# --- Parser --------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nest(self, tok: _Token) -> None:
        """Enter one more level of nesting, opened by ``tok``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            _fail(tok, f"nested more than {MAX_NESTING} levels deep")

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            _fail(tok, f"expected {kind!r}, got {tok.value!r}")
        return tok

    def parse_statements(self, opener: Optional[_Token] = None, label: str = "") -> list[Statement]:
        """Statements up to the ``}`` closing ``opener``, or to the end of
        the text when there is none; an opener still open at the end of the
        text is an ``unterminated {label}``."""
        end = "}" if opener else "EOF"
        depth = self.depth
        if opener:
            self.nest(opener)
        statements: list[Statement] = []
        while not self.at(end):
            if self.at("EOF"):
                _fail(opener, f"unterminated {label}")
            statements.extend(self.parse_statement())
        self.take()
        self.depth = depth
        return statements

    def parse_statement(self) -> list[Statement]:
        head = self.take()
        if head.kind != "IDENT":
            _fail(head, f"expected a statement, got {head.value!r}")
        if head.value == "use":
            return self.parse_use_block()
        if head.value in LOOP_KINDS:
            args, (var, body) = self.parse_args(head.value)
            return [Loop(head.value, args, var, body, line=head.line, col=head.col)]
        args, _ = self.parse_args()
        return [Call(head.value, args, line=head.line, col=head.col)]

    def parse_use_block(self) -> list[Statement]:
        # use("...").with { loop trailing-statements }
        for kind in ("(", "STRING", ")", "."):
            self.expect(kind)
        with_tok = self.expect("IDENT")
        if with_tok.value != "with":
            _fail(with_tok, f"expected 'with', got {with_tok.value!r}")
        brace = self.expect("{")
        statements = self.parse_statements(brace, "use-block")
        if not statements or not isinstance(statements[0], Loop):
            _fail(brace, "a use-block must start with forEach or forEachUnion")
        return statements

    def parse_args(self, loop: Optional[str] = None):
        """``(name: expr, ...)``, returned with None; a loop's list (``loop``
        is its kind) must end in its block, returned as ``(var, body)``."""
        self.expect("(")
        args: list[tuple[str, Expr]] = []
        block = None
        if loop or not self.at(")"):
            while not (loop and self.at("{")):
                name = self.expect("IDENT")
                self.expect(":")
                args.append((name.value, self.parse_expr()))
                if not self.at(","):
                    if loop:
                        _fail(self.take(), f"{loop} needs a {{ var -> ... }} block")
                    break
                self.take()
            if loop:
                block = self.parse_block()
        self.expect(")")
        return tuple(args), block

    def parse_block(self) -> tuple[str, tuple[Statement, ...]]:
        brace = self.expect("{")
        var = self.expect("IDENT").value
        self.expect("->")
        return var, tuple(self.parse_statements(brace, "loop block"))

    def parse_expr(self) -> Expr:
        depth = self.depth
        left = self.parse_atom()
        while self.at("+") or self.at("-"):
            op = self.take()
            self.nest(op)
            left = BinOp(op=op.kind, left=left, right=self.parse_atom())
        self.depth = depth
        return left

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok.kind in ("INT", "REAL", "STRING", "BOOL"):
            return tok.value
        if tok.kind == "IDENT":
            return Var(tok.value)
        if tok.kind == "[":
            self.nest(tok)
            items = [self.parse_expr()]
            while self.at(","):
                self.take()
                items.append(self.parse_expr())
            self.expect("]")
            self.depth -= 1
            return tuple(items)
        if tok.kind == "(":
            self.nest(tok)
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        _fail(tok, f"expected an expression, got {tok.value!r}")


# --- Static validation ----------------------------------------------------

_LIT_TYPES = {bool: "bool", int: "int", float: "real", str: "str", tuple: "list"}


def _expr_type(expr: Expr, loop_var: Optional[str], line: int, col: int) -> str:
    """Static type of an expression; loop variables are integers."""
    if isinstance(expr, Var):
        if loop_var is None or expr.name != loop_var:
            raise BadArgumentError(f"unbound variable {expr.name!r}", line, col)
        return "int"
    if isinstance(expr, BinOp):
        for side in (expr.left, expr.right):
            if _expr_type(side, loop_var, line, col) != "int":
                raise BadArgumentError("arithmetic needs integer operands", line, col)
        return "int"
    return _LIT_TYPES[type(expr)]


def _check_arg(name: str, expr: Expr, want: str, loop_var: Optional[str], line: int, col: int):
    got = _expr_type(expr, loop_var, line, col)
    shape = _SHAPES.get(want)
    if shape:
        items = expr if isinstance(expr, tuple) else ()
        if tuple(_expr_type(e, loop_var, line, col) for e in items) != shape:
            raise BadArgumentError(f"{name} expects [{', '.join(shape)}]", line, col)
    elif got != want and (want, got) != ("real", "int"):
        raise BadArgumentError(f"{name} expects {want}, got {got}", line, col)
    elif name in _PATH_ARGS and "\0" in expr:
        # open() and os.makedirs() reject it only when the statement runs.
        raise BadArgumentError(f"{name} must not contain a NUL character", line, col)


def _validate_args(
    name: str,
    args: tuple[tuple[str, Expr], ...],
    spec: dict,
    loop_var: Optional[str],
    line: int,
    col: int,
) -> None:
    allowed = dict(spec["required"] + spec["optional"])
    seen = set()
    for arg, expr in args:
        if arg not in allowed:
            raise BadArgumentError(f"{name} has no argument {arg!r}", line, col)
        if arg in seen:
            raise BadArgumentError(f"duplicate argument {arg!r}", line, col)
        seen.add(arg)
        _check_arg(arg, expr, allowed[arg], loop_var, line, col)
    for arg, _ in spec["required"]:
        if arg not in seen:
            raise BadArgumentError(f"{name} requires argument {arg!r}", line, col)


def _validate(statements: tuple[Statement, ...], loop_var: Optional[str]) -> None:
    for stmt in statements:
        if isinstance(stmt, Loop):
            _validate_args(stmt.kind, stmt.args, LOOP_ARGS, loop_var, stmt.line, stmt.col)
            _validate(stmt.body, stmt.var)
        else:
            spec = REGISTRY.get(stmt.name)
            if spec is None:
                raise UnknownFunctionError(f"unknown function {stmt.name!r}", stmt.line, stmt.col)
            _validate_args(stmt.name, stmt.args, spec, loop_var, stmt.line, stmt.col)


def parse_script(text: str) -> tuple[Statement, ...]:
    """Parse and statically validate a script into its statements."""
    statements = tuple(_Parser(_tokenize(text)).parse_statements())
    _validate(statements, None)
    return statements


# --- Evaluation and pretty-printing ---------------------------------------


def eval_expr(expr: Expr, bindings: Optional[dict[str, int]] = None):
    if isinstance(expr, Var):
        if not bindings or expr.name not in bindings:
            raise BadArgumentError(f"unbound variable {expr.name!r}")
        return bindings[expr.name]
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, bindings)
        right = eval_expr(expr.right, bindings)
        return left + right if expr.op == "+" else left - right
    if isinstance(expr, tuple):
        return tuple(eval_expr(item, bindings) for item in expr)
    return expr


def _fmt_expr(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, BinOp):
        right = _fmt_expr(expr.right)
        if isinstance(expr.right, BinOp):
            right = f"({right})"
        return f"{_fmt_expr(expr.left)} {expr.op} {right}"
    if isinstance(expr, tuple):
        return "[" + ", ".join(_fmt_expr(item) for item in expr) + "]"
    if isinstance(expr, bool):
        return "true" if expr else "false"
    # json and decimal load here, not at start: only pretty() needs them.
    if isinstance(expr, str):
        import json

        return json.dumps(expr, ensure_ascii=False)
    if isinstance(expr, float):
        from decimal import Decimal

        # digits.digits: repr() would write 1e-05 or 1e+16.
        text = format(Decimal(repr(expr)), "f")
        return text if "." in text else text + ".0"
    return str(expr)


def pretty(statements: tuple[Statement, ...]) -> str:
    """Canonical source form; parsing it back reproduces the same AST."""
    out: list[str] = []
    _pretty_into(statements, out, 0)
    return "\n".join(out) + "\n" if out else ""


def _pretty_into(statements: tuple[Statement, ...], out: list[str], depth: int) -> None:
    pad = "    " * depth
    for stmt in statements:
        if isinstance(stmt, Loop):
            args = "".join(f"{name}: {_fmt_expr(e)}, " for name, e in stmt.args)
            out.append(f"{pad}{stmt.kind}({args}{{ {stmt.var} ->")
            _pretty_into(stmt.body, out, depth + 1)
            out.append(f"{pad}}})")
        else:
            args = ", ".join(f"{name}: {_fmt_expr(e)}" for name, e in stmt.args)
            out.append(f"{pad}{stmt.name}({args})")
