"""Script parsing, printing, and the round-trip between them."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from lttw.corpus import CORPUS_DIR
from lttw.parser import (
    UnterminatedCommand, parse_kind, parse_script, parse_term, tokenize,
)
from lttw.printer import print_kind, print_term
from lttw.surface import (
    Declare, DeclareRule, Define, Directive, DirectiveOp, SApp, SEl, SHole,
    SLam, SName, SPi, SProp, SPrf, SType, ScriptSyntaxError, SourceSpan,
    STermKind,
)
from lttw.stdlib import STDLIB_DIR
from lttw.syntax import (
    PROP, TYPE, App, Const, ElKind, Lam, Meta, PiKind, PrfKind, Var, alpha_eq,
    app,
)

settings.register_profile("thorough", max_examples=500, deadline=None,
                          derandomize=True)
settings.load_profile("thorough")


# ------------------------------------------------------------ tokenizer

def test_only_marked_lines_are_code():
    text = (
        "This prose is ignored, even with [brackets] and ; semicolons.\n"
        "> [bot : Prop];\n"
        "more prose > not code (marker must come first)\n"
        "   > Check bot;\n"
    )
    cmds = parse_script(text)
    assert len(cmds) == 2
    assert isinstance(cmds[0], Declare)
    assert isinstance(cmds[1], Directive)


def test_token_positions():
    toks = tokenize("> [bot : Prop];\n>   Check bot;", "f.lf")
    _, value, line, col = toks[0]
    assert value == "[" and line == 1 and col == 3
    _, value, _, col = toks[1]
    assert value == "bot" and col == 4
    _, _, line, col = [t for t in toks if t[1] == "Check"][0]
    assert line == 2 and col == 5


def test_number_and_apostrophe_tokens():
    toks = tokenize("> SetOption fuel 200;\n> [setminus' : Prop];", "f.lf")
    values = [value for _, value, _, _ in toks]
    assert "200" in values and "setminus'" in values
    type_, _, _, _ = [t for t in toks if t[1] == "200"][0]
    assert type_ == "number"


def test_tokens_are_exact_tuples():
    # the collector stops tracking an exact tuple of strings and ints, but
    # rescans an instance of a tuple subclass for as long as it lives
    toks = tokenize("> [c : Nat -> Type];\n> Load \"x.lf\";\n"
                    "> SetOption fuel 7;", "f.lf")
    assert len(toks) == 15
    assert all(type(t) is tuple and len(t) == 4 for t in toks)


def test_identifiers_share_one_string():
    toks = tokenize("> Check succ (succ zero);\n> Check succ zero;", "f.lf")
    succs = [t[1] for t in toks if t[1] == "succ"]
    assert len(succs) == 3
    assert all(s is succs[0] for s in succs)


def test_bad_character_rejected():
    with pytest.raises(ScriptSyntaxError) as e:
        tokenize("> [c : A & B];", "f.lf")
    assert e.value.span is not None and e.value.span.col == 10


# ------------------------------------------------------------- commands

def test_declare_simple():
    (cmd,) = parse_script("> [bot : Prop];")
    assert isinstance(cmd, Declare) and cmd.name == "bot"
    assert isinstance(cmd.kind, SProp) and cmd.binders == ()


def test_declare_arrow_kind():
    (cmd,) = parse_script("> [imp : Prop -> Prop -> Prop];")
    k = cmd.kind
    assert isinstance(k, SPi) and isinstance(k.domain, SProp)
    assert isinstance(k.codomain, SPi)
    assert isinstance(k.codomain.codomain, SProp)


def test_declare_with_parameters():
    (cmd,) = parse_script("> [botE [p : Prop] : Prf bot -> Prf p];")
    assert cmd.name == "botE"
    assert len(cmd.binders) == 1
    name, ann, _ = cmd.binders[0]
    assert name == "p" and isinstance(ann, SProp)
    assert isinstance(cmd.kind, SPi)
    assert isinstance(cmd.kind.domain, SPrf)


def test_declare_named_product():
    (cmd,) = parse_script("> [forallI : (A : Type) (P : A -> Prop) "
                          "((x : A) Prf (P x)) -> Prf (forall A P)];")
    k = cmd.kind
    assert isinstance(k, SPi) and k.var == "A"
    assert isinstance(k.codomain, SPi) and k.codomain.var == "P"
    inner = k.codomain.codomain
    assert isinstance(inner, SPi) and inner.var == "_"
    assert isinstance(inner.domain, SPi) and inner.domain.var == "x"


def test_define_with_and_without_ascription():
    cmds = parse_script(
        "> [two = succ (succ zero)];\n"
        "> [idn [n : Nat] = n : Nat];\n")
    d1, d2 = cmds
    assert isinstance(d1, Define) and d1.kind is None
    assert isinstance(d1.body, SApp)
    assert isinstance(d2, Define) and d2.kind is not None
    assert len(d2.binders) == 1


def test_define_body_can_start_with_lambda():
    (cmd,) = parse_script("> [idf = [n : Nat] n];")
    assert isinstance(cmd, Define) and cmd.binders == ()
    assert isinstance(cmd.body, SLam)


def test_rule_command():
    (cmd,) = parse_script(
        "> rule [C : Nat -> Type] [z : C zero]\n"
        ">      [s : (n : Nat) C n -> C (succ n)]\n"
        ">      E_Nat C z s zero = z : C zero;")
    assert isinstance(cmd, DeclareRule)
    assert [b[0] for b in cmd.binders] == ["C", "z", "s"]
    assert isinstance(cmd.lhs, SApp)
    assert isinstance(cmd.rhs, SName) and cmd.rhs.name == "z"
    assert isinstance(cmd.kind, STermKind)


def test_directives():
    cmds = parse_script(
        '> Check bot;\n'
        '> Check zero : Nat;\n'
        '> TypeOf succ;\n'
        '> Reduce plus;\n'
        '> Load "stdlib/01_logic.lf";\n'
        '> SetOption fuel 5000;\n'
        '> SetOption fuel "5000";\n')
    ops = [c.op for c in cmds]
    assert ops == [DirectiveOp.CHECK, DirectiveOp.CHECK, DirectiveOp.TYPEOF,
                   DirectiveOp.REDUCE, DirectiveOp.LOAD,
                   DirectiveOp.SETOPTION, DirectiveOp.SETOPTION]
    assert cmds[0].payload[1] is None
    assert cmds[1].payload[1] is not None
    # TypeOf and Reduce carry a Check's payload, with no kind
    assert [len(c.payload) for c in cmds[2:4]] == [2, 2]
    assert cmds[2].payload[1] is None and cmds[3].payload[1] is None
    assert cmds[4].payload == ("stdlib/01_logic.lf",)
    assert cmds[5].payload == ("fuel", "5000")
    assert cmds[6].payload == ("fuel", "5000")


def test_number_rejected_in_term_position():
    with pytest.raises(ScriptSyntaxError):
        parse_script("> Check succ 3;")


def test_multiline_command_and_span():
    (cmd,) = parse_script("> [conj : Prop ->\n>    Prop -> Prop];",
                          file="conj.lf")
    assert isinstance(cmd, Declare)
    assert cmd.span.file == "conj.lf"
    assert cmd.span.line == 1 and cmd.span.end_line == 2


def test_unterminated_command():
    with pytest.raises(UnterminatedCommand):
        parse_script("> [c : Prop]")
    with pytest.raises(UnterminatedCommand):
        parse_script("> Check imp p")
    with pytest.raises(ScriptSyntaxError):
        parse_script("> ] stray;")


@pytest.mark.parametrize("parse, text, error, message, end_col", [
    pytest.param(parse_script, "> SetOption fuel", UnterminatedCommand,
                 "<script>:1:13: input ended inside a command",
                 17, id="ends-in-command"),
    pytest.param(parse_script, "> [c", UnterminatedCommand,
                 "<script>:1:4: input ended inside a declaration",
                 5, id="ends-in-declaration"),
    pytest.param(parse_script, "> Check", UnterminatedCommand,
                 "<script>:1:3: input ended where a term was expected",
                 8, id="ends-before-term"),
    pytest.param(parse_script, "> [c :", UnterminatedCommand,
                 "<script>:1:6: input ended where a kind was expected",
                 7, id="ends-before-kind"),
    pytest.param(parse_script, "> [c : Prop", UnterminatedCommand,
                 "<script>:1:8: input ended where ']' was expected",
                 12, id="ends-before-token"),
    pytest.param(parse_script, "> [c : A & B];", ScriptSyntaxError,
                 "<script>:1:10: unexpected character '&'",
                 11, id="bad-character"),
    pytest.param(parse_script, '> Load "abc;', ScriptSyntaxError,
                 "<script>:1:8: unterminated string literal",
                 9, id="unterminated-string"),
    pytest.param(parse_script, "> ] stray;", ScriptSyntaxError,
                 "<script>:1:3: a command starts with '[', 'rule', or a "
                 "directive; found ']'", 4, id="stray-token"),
    pytest.param(parse_script, "> [c ; Prop];", ScriptSyntaxError,
                 "<script>:1:6: expected ':' or '=' in a declaration, "
                 "found ';'", 7, id="declaration-without-colon-or-equals"),
    pytest.param(parse_script, "> Check ];", ScriptSyntaxError,
                 "<script>:1:9: expected a term, found ']'",
                 10, id="not-a-term"),
    pytest.param(parse_script, "> SetOption fuel ];", ScriptSyntaxError,
                 "<script>:1:18: SetOption value must be a name, number, or "
                 "string, found ']'", 19, id="bad-setoption-value"),
    pytest.param(parse_script, '> Check "abc";', ScriptSyntaxError,
                 '<script>:1:9: expected a term, found "abc"', 14,
                 id="string-literal"),
    pytest.param(parse_term, "f x )", ScriptSyntaxError,
                 "<term>:1:5: unexpected ')' after the term",
                 6, id="trailing-token"),
])
def test_error_contract(parse, text, error, message, end_col):
    with pytest.raises(ScriptSyntaxError) as e:
        parse(text)
    assert type(e.value) is error
    assert str(e.value) == message
    assert e.value.span.end_col == end_col


def test_standalone_error_column_is_its_own():
    with pytest.raises(ScriptSyntaxError) as e:
        parse_term("f & x")
    assert str(e.value) == "<term>:1:3: unexpected character '&'"


def test_standalone_span_column_is_its_own():
    assert str(parse_term("f x").span) == "<term>:1:1"


# ---------------------------------------------------------------- spans

SHIPPED = sorted(STDLIB_DIR.glob("*.lf")) + sorted(CORPUS_DIR.glob("*.lf"))


def _parts(x):
    """The span of a surface node, binder or command, and the nodes and
    binders directly under it."""
    if isinstance(x, tuple):  # binder (name, annotation, span)
        return x[2], [x[1]] if x[1] is not None else []
    if isinstance(x, SApp):
        under = [x.fn, x.arg]
    elif isinstance(x, SLam):
        under = [x.ann, x.body]
    elif isinstance(x, (SEl, SPrf)):
        under = [x.body]
    elif isinstance(x, SPi):
        under = [x.domain, x.codomain]
    elif isinstance(x, STermKind):
        under = [x.term]
    elif isinstance(x, Declare):
        under = [*x.binders, x.kind]
    elif isinstance(x, Define):
        under = [*x.binders, x.body, x.kind]
    elif isinstance(x, DeclareRule):
        under = [*x.binders, x.lhs, x.rhs, x.kind]
    elif isinstance(x, Directive):
        under = [p for p in x.payload if not isinstance(p, str)]
    else:  # SName, SHole, SType, SProp
        under = []
    return x.span, [u for u in under if u is not None]


def _inside(inner, outer):
    return ((outer.line, outer.col) <= (inner.line, inner.col)
            and (inner.end_line, inner.end_col)
            <= (outer.end_line, outer.end_col))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_spans_nest_and_slice_their_tokens(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for cmd in parse_script(text, file=path.name):
        todo = [(cmd, cmd.span)]
        while todo:
            x, outer = todo.pop()
            span, under = _parts(x)
            assert span.file == path.name
            assert _inside(span, outer) and _inside(span, cmd.span), x
            if isinstance(x, (SName, SHole)):
                written = x.name if isinstance(x, SName) else "?"
                assert span.line == span.end_line
                assert (lines[span.line - 1][span.col - 1:span.end_col - 1]
                        == written)
            todo.extend((u, span) for u in under)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_nodes_hold_no_span(path):
    # a term or kind node builds its span when asked: it holds its first
    # and last tokens, which the collector stops tracking, not a SourceSpan,
    # which it would rescan for as long as the node lives
    nodes = 0
    for cmd in parse_script(path.read_text(encoding="utf-8"),
                            file=path.name):
        todo = _parts(cmd)[1]
        while todo:
            x = todo.pop()
            todo.extend(_parts(x)[1])
            if isinstance(x, tuple):  # a command's binder keeps its span
                continue
            nodes += 1
            assert not any(isinstance(r, SourceSpan)
                           for r in gc.get_referents(x)), x
    assert nodes > 0


# ---------------------------------------------------------------- terms

def test_application_is_left_associative():
    t = parse_term("f a b c")
    assert isinstance(t, SApp)
    assert isinstance(t.fn, SApp) and isinstance(t.fn.fn, SApp)
    assert t.arg.name == "c" and t.fn.fn.fn.name == "f"


def test_trailing_lambda_is_final_argument():
    t = parse_term("set Nat [x : Nat] lt x n")
    assert isinstance(t, SApp)
    assert isinstance(t.arg, SLam) and t.arg.var == "x"
    assert isinstance(t.fn, SApp)
    assert t.fn.arg.name == "Nat" and t.fn.fn.name == "set"
    body = t.arg.body
    assert isinstance(body, SApp) and body.arg.name == "n"


def test_parenthesised_lambda_is_ordinary_argument():
    t = parse_term("E_Nat ([_ : Nat] Nat) n ([_ : Nat] [r : Nat] succ r) m")
    assert isinstance(t, SApp) and t.arg.name == "m"
    assert isinstance(t.fn.arg, SLam)


def test_unannotated_binder_and_hole():
    t = parse_term("In ? X ([y] y)")
    hole = t.fn.fn.arg
    assert isinstance(hole, SHole)
    lam = t.arg
    assert isinstance(lam, SLam) and lam.ann is None


def test_nested_lambda_annotations():
    t = parse_term("[P : Nat -> Prop] [n : Nat] P n")
    assert isinstance(t, SLam) and isinstance(t.ann, SPi)
    assert isinstance(t.body, SLam)


# ---------------------------------------------------------------- kinds

def test_kind_grammar_shapes():
    k = parse_kind("(C : Nat -> Type) C zero -> "
                   "((n : Nat) C n -> C (succ n)) -> (n : Nat) C n")
    assert isinstance(k, SPi) and k.var == "C"
    assert isinstance(k.domain, SPi) and isinstance(k.domain.codomain, SType)
    step = k.codomain
    assert isinstance(step, SPi) and isinstance(step.domain, STermKind)
    arm = step.codomain
    assert isinstance(arm.domain, SPi) and arm.domain.var == "n"
    assert isinstance(arm.codomain, SPi) and arm.codomain.var == "n"


def test_kind_el_and_prf():
    k = parse_kind("El (f x) -> Prf (P a) -> Prf p")
    assert isinstance(k.domain, SEl)
    assert isinstance(k.codomain.domain, SPrf)
    assert isinstance(k.codomain.codomain, SPrf)
    assert isinstance(k.codomain.codomain.body, SName)


def test_bare_term_kind_application_resumes_after_parens():
    k = parse_kind("(f x) y")
    assert isinstance(k, STermKind)
    t = k.term
    assert isinstance(t, SApp) and t.arg.name == "y"


def test_arrow_is_right_associative():
    k = parse_kind("Type -> Type -> Type")
    assert isinstance(k.codomain, SPi)
    assert isinstance(k.domain, SType)


# ------------------------------------------------------------ round-trip

CONSTS = {"f", "g", "h", "Nat", "succ"}


def resolve_term(s, bound=frozenset()):
    if isinstance(s, SName):
        if s.name in bound:
            return Var(s.name)
        if s.name in CONSTS:
            return Const(s.name)
        return Var(s.name)
    if isinstance(s, SApp):
        return App(resolve_term(s.fn, bound), resolve_term(s.arg, bound))
    if isinstance(s, SLam):
        assert s.ann is not None
        return Lam(s.var, resolve_kind(s.ann, bound),
                   resolve_term(s.body, bound | {s.var}))
    raise AssertionError(f"unexpected surface node {s!r}")


def resolve_kind(s, bound=frozenset()):
    if isinstance(s, SType):
        return TYPE
    if isinstance(s, SProp):
        return PROP
    if isinstance(s, (SEl, STermKind)):
        body = s.body if isinstance(s, SEl) else s.term
        return ElKind(resolve_term(body, bound))
    if isinstance(s, SPrf):
        return PrfKind(resolve_term(s.body, bound))
    if isinstance(s, SPi):
        return PiKind(s.var, resolve_kind(s.domain, bound),
                      resolve_kind(s.codomain, bound | {s.var}))
    raise AssertionError(f"unexpected surface node {s!r}")


_var_names = st.sampled_from(["x", "y", "z", "w"])
# a binder may share its name with a constant, which the printer renames
_binder_names = st.sampled_from(["x", "y", "z", "w", "Nat", "f"])
_const_names = st.sampled_from(sorted(CONSTS))


def _terms(depth):
    base = st.one_of(_var_names.map(Var), _const_names.map(Const))
    if depth == 0:
        return base
    sub_t = _terms(depth - 1)
    sub_k = _kinds(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub_t, sub_t).map(lambda p: App(*p)),
        st.tuples(_binder_names, sub_k, sub_t).map(lambda p: Lam(*p)),
    )


def _kinds(depth):
    base = st.one_of(st.just(TYPE), st.just(PROP))
    if depth == 0:
        return base
    sub_t = _terms(depth - 1)
    sub_k = _kinds(depth - 1)
    return st.one_of(
        base,
        sub_t.map(ElKind),
        sub_t.map(PrfKind),
        st.tuples(_binder_names, sub_k, sub_k).map(lambda p: PiKind(*p)),
    )


@given(_terms(4))
def test_term_print_parse_round_trip(t):
    printed = print_term(t)
    back = resolve_term(parse_term(printed))
    assert alpha_eq(back, t), f"{printed!r} reparsed differently"


@given(_kinds(4))
def test_kind_print_parse_round_trip(k):
    printed = print_kind(k)
    back = resolve_kind(parse_kind(printed))
    assert alpha_eq(back, k), f"{printed!r} reparsed differently"


def test_printed_kind_matches_script_conventions():
    nat = ElKind(Const("Nat"))
    c_of = lambda t: ElKind(App(Var("C"), t))
    k = PiKind(
        "C", PiKind("_", nat, TYPE),
        PiKind("_", c_of(Const("zero")),
               PiKind("_",
                      PiKind("n", nat,
                             PiKind("_", c_of(Var("n")),
                                    c_of(App(Const("succ"), Var("n"))))),
                      PiKind("n", nat, c_of(Var("n"))))))
    assert print_kind(k) == ("(C : Nat -> Type) C zero -> "
                             "((n : Nat) C n -> C (succ n)) -> "
                             "(n : Nat) C n")


def test_printed_term_parenthesisation():
    t = app(Const("f"), App(Const("g"), Var("x")), Var("y"))
    assert print_term(t) == "f (g x) y"
    lam = Lam("x", ElKind(Const("Nat")), App(Const("succ"), Var("x")))
    assert print_term(lam) == "[x : Nat] succ x"
    assert print_term(App(Const("f"), lam)) == "f ([x : Nat] succ x)"


def test_a_hole_under_a_binder_prints():
    # the binder asks for the printed term's constants, and that walk
    # passes a hole's ident, an int, without taking it for a node
    lam = Lam("x", ElKind(Const("Nat")), App(Meta(0), Var("x")))
    assert print_term(lam) == "[x : Nat] ?0 x"


def test_printer_renames_captured_binder():
    # printed as it stands, the binder would capture the constant Nat
    lam = Lam("Nat", TYPE, Const("Nat"))
    printed = print_term(lam)
    binder = printed[1:printed.index(" :")]
    assert binder != "Nat"
    back = resolve_term(parse_term(printed))
    assert alpha_eq(back, lam)
