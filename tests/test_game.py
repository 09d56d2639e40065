"""Game graph construction, the PGSolver format, and the generator."""

import random
import sys

import pytest

from pgtrees import game
from pgtrees.game import (
    EVEN,
    ODD,
    GameError,
    GameGraph,
    ParseError,
    normalize_priorities,
    parse_pgsolver,
    random_game,
    serialize_pgsolver,
)
from reference import reference_parse_pgsolver


def test_parse_single_vertex():
    g = parse_pgsolver("parity 0;\n0 2 0 0;")
    assert g.n == 1
    assert g.priority == (2,)
    assert g.owner == (EVEN,)
    assert g.succ == ((0,),)
    assert g.d == 2


def test_parse_two_vertices():
    g = parse_pgsolver("parity 1;\n0 1 0 1;\n1 2 1 0;")
    assert g.n == 2
    assert g.priority == (1, 2)
    assert g.owner == (EVEN, ODD)
    assert g.succ == ((1,), (0,))


def test_parse_accepts_bytes_names_and_comments():
    text = b'-- a comment\nparity 2;\n0 4 0 1,2 "start";\n1 3 1 1; -- trailing\n2 2 0 0;\n'
    g = parse_pgsolver(text)
    assert g.n == 3
    assert g.succ[0] == (1, 2)
    assert g.priority == (4, 3, 2)
    # ';' and '--' are literal inside a quoted name; a record may span lines
    g = parse_pgsolver('0 4 0 1,2 "a;b--c";\n1 3 -- split\n 1 1;\n2 2 0 0;')
    assert g.owner == (0, 1, 0)
    assert g.priority == (4, 3, 2)
    assert g.succ == ((1, 2), (1,), (0,))
    # a name still open at the end of its line reads on only when the later
    # lines hold no ';' and its closing quote ends its line
    assert parse_pgsolver('0 1 0 0 "X\nY -- c\nZ"  \n;').n == 1
    for text in ('0 1 0 0 "X\nY";', '0 1 0 0 "X\n;', '0 1 0 0 "X\nY;"\n;'):
        with pytest.raises(ParseError):
            parse_pgsolver(text)
    # any whitespace the record syntax allows may surround a successor,
    # including U+001C..U+001F, which int() alone does not strip
    g = parse_pgsolver("0 2 0 0\x1c,\u30001\x1f;\n1 1 1 0;")
    assert g.succ == ((0, 1), (0,))


def test_parse_remaps_sparse_ids_in_declaration_order():
    g = parse_pgsolver("10 2 0 20;\n20 1 1 10;")
    assert g.n == 2
    assert g.succ == ((1,), (0,))
    assert g.priority == (2, 1)


def test_parse_empty_successor_list_is_rejected():
    with pytest.raises(ParseError, match="vertex 0 has no successors"):
        parse_pgsolver("parity 0;\n0 2 0 ;")


def test_parse_duplicate_id_rejected():
    with pytest.raises(ParseError, match="duplicate vertex id 0"):
        parse_pgsolver("0 2 0 0;\n0 1 1 0;")


def test_parse_undeclared_successor_rejected():
    with pytest.raises(ParseError, match="undeclared successor 7"):
        parse_pgsolver("0 2 0 7;")


def test_parse_syntax_error_reports_location():
    # each message carries the line and column of the record's first non-blank character
    cases = [
        ("parity 1;\nnot a vertex;\n", "cannot parse vertex record (line 2, column 1)"),
        ("parity x;\n0 1 0 0;", "malformed 'parity' header (line 1, column 1)"),
        ("parity 1;\n0 1 0 0;\n  1 2 1;\n", "vertex 1 has no successors (line 3, column 3)"),
        ("parity 1;\n0 1 0 0;\n0 2 1 0;", "duplicate vertex id 0 (line 3, column 1)"),
        (
            "parity 1;\n0 1 0 0;\n  1 2 0 7;",
            "vertex 1 references undeclared successor 7 (line 3, column 3)",
        ),
        ("0 1 0 0;\n\t1 2 0 0", "record is not terminated by ';' (line 2, column 2)"),
        # an unclosed quote ends at the end of its line
        ('0 1 0 0 "open;\n;', "cannot parse vertex record (line 1, column 1)"),
        ("-- only a comment\n", "no vertex records found"),
        # an unterminated last record is reported before any other error
        ("parity x;\n0 1 0 0", "record is not terminated by ';' (line 2, column 1)"),
        ('0 1 0 0 "a;b"', "record is not terminated by ';' (line 1, column 1)"),
        ("0 1 0 0;;", "cannot parse vertex record (line 1, column 9)"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_pgsolver(text)
        assert str(info.value) == message, text


def test_parse_missing_terminator():
    with pytest.raises(ParseError, match="not terminated"):
        parse_pgsolver("parity 0;\n0 2 0 0")


def test_parse_rejects_numbers_beyond_the_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    long = "1" * (limit + 1)
    cases = [
        (f"{long} 2 0 0;", "line 1, column 1"),
        (f"0 2 0 0;\n 1 {long} 1 0;", "line 2, column 2"),
        (f"0 2 0 0;\n 1 2 1 0,{long};", "line 2, column 2"),
    ]
    for text, where in cases:
        with pytest.raises(ParseError) as info:
            parse_pgsolver(text)
        assert str(info.value) == f"number has more than {limit} digits ({where})"
    # inside a name it is only text
    assert parse_pgsolver(f'0 2 0 0 "{long}";').n == 1


def test_parse_builds_canonical_text_in_bulk_and_leaves_errors_to_the_scan(monkeypatch):
    def columns(g):
        return g.n, g.d, g.owner, g.priority, g.succ, g.preds

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    long = "1" * (limit + 1)
    # canonical text with a trailing newline that is not a valid game
    cases = [
        ("parity 1;\n0 1 0 1;\n0 2 1 0;\n", "duplicate vertex id 0 (line 3, column 1)"),
        ("0 1 0 1;\n1 2 1 7;\n", "vertex 1 references undeclared successor 7 (line 2, column 1)"),
        ("parity 1;\n0 1 0 1;\n1 2 2 0;\n", "cannot parse vertex record (line 3, column 1)"),
    ]
    if limit:
        too_long = f"number has more than {limit} digits"
        cases += [
            (f"0 1 0 0;\n{long} 2 1 0;\n", f"{too_long} (line 2, column 1)"),
            (f"parity 1;\n0 {long} 0 1;\n1 2 1 0;\n", f"{too_long} (line 2, column 1)"),
            (f"0 1 0 0;\n1 2 1 0,{long};\n", f"{too_long} (line 2, column 1)"),
        ]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_pgsolver(text)
        assert str(info.value) == message, text

    # serialized games never reach the record scan, and parse as through it;
    # so does canonical text that the serializer never writes: a repeated
    # successor, and a header with a last record and no final newline
    texts = [serialize_pgsolver(random_game(n, 4, (1, 3), seed=n)) for n in (1, 2, 9, 60)]
    texts += ["0 1 0 0,0;\n", "parity 1;\n0 1 0 1,1;\n1 2 1 0,1,0;"]
    expected = [columns(game._parse_records(text)) for text in texts]
    assert expected[-2][4:] == (((0, 0),), ((0,),))

    class NoScan:
        def finditer(self, text):
            raise AssertionError("canonical text went through the record scan")

    monkeypatch.setattr(game, "_RECORD_RE", NoScan())
    assert [columns(parse_pgsolver(text)) for text in texts] == expected


def _columns(g):
    return g.n, g.d, g.owner, g.priority, g.succ, g.preds


def test_parse_builds_canonical_text_without_the_public_constructor(monkeypatch):
    texts = [serialize_pgsolver(random_game(n, 6, (1, 3), seed=n)) for n in (1, 2, 9, 60)]
    expected = [_columns(game._parse_records(text)) for text in texts]

    def checked(*args, **kwargs):
        raise AssertionError("canonical text went through GameGraph.__init__")

    monkeypatch.setattr(GameGraph, "__init__", checked)
    assert [_columns(parse_pgsolver(text)) for text in texts] == expected


def test_parse_leaves_canonical_text_with_other_ids_to_the_scan():
    # a successor of exactly n is undeclared: the bulk path refuses it and
    # the scan reports it where it would in any other text
    text = "parity 2;\n0 1 0 1;\n1 2 1 0,2;\n2 3 0 1,3;\n"
    with pytest.raises(ParseError) as info:
        parse_pgsolver(text)
    assert str(info.value) == "vertex 2 references undeclared successor 3 (line 4, column 1)"
    # ids 1..n, or 0..n-1 out of order, are canonical text that the bulk
    # path refuses; the scan remaps them in declaration order
    for text in (
        "parity 3;\n1 1 0 2;\n2 2 1 1,3;\n3 4 0 3;\n",
        "2 1 0 0;\n0 2 1 1,2;\n1 3 0 2;\n",
        "parity 1;\n1 5 1 0,1;\n0 2 0 1;",
    ):
        assert game._CANONICAL_RE.fullmatch(text), text
        assert _columns(parse_pgsolver(text)) == _columns(game._parse_records(text))
    # a zero-padded number is canonical text that JSON refuses, so the bulk
    # path leaves it to the scan, which reads it as the unpadded number
    for text in ("0 01 0 1;\n1 2 1 0;\n", "0 1 0 0,01;\n1 2 1 0;\n"):
        assert game._CANONICAL_RE.fullmatch(text), text
        assert game._parse_canonical(text) is None, text
        assert _columns(parse_pgsolver(text)) == _columns(game._parse_records(text))
    g = parse_pgsolver("2 1 0 0;\n0 2 1 1,2;\n1 3 0 2;\n")
    assert g.succ == ((1,), (2, 0), (0,))
    assert g.priority == (1, 2, 3)


def test_parse_drops_a_byte_order_mark(monkeypatch):
    # a file saved with a BOM parses as the same file without it, and its
    # errors keep their locations
    bom = b"\xef\xbb\xbf"
    scanned = b'0 1 0 1 "a";\n1 2 1 0; -- c\n'
    assert _columns(parse_pgsolver(bom + scanned)) == _columns(parse_pgsolver(scanned))
    # as does text read from such a file, which still starts with U+FEFF
    text = (bom + scanned).decode("utf-8")
    assert _columns(parse_pgsolver(text)) == _columns(parse_pgsolver(scanned))
    with pytest.raises(ParseError) as info:
        parse_pgsolver(bom + b"0 1 0 1;\n1 2 1 7;\n")
    assert str(info.value) == "vertex 1 references undeclared successor 7 (line 2, column 1)"
    # canonical text after a BOM is still built in bulk
    canonical = b"parity 1;\n0 1 0 1;\n1 2 1 0,1;\n"
    expected = _columns(parse_pgsolver(canonical))
    monkeypatch.setattr(game, "_parse_records", None)
    assert _columns(parse_pgsolver(bom + canonical)) == expected


_BLANKS = [" ", " ", "\t", "\n", "\r\n", "\x1c", "\x1f", "\u3000", "\x0b", "\x85"]
_NAMES = ['"a"', '"a;b"', '"x--y"', '"v;--x"', '""'] * 3 + ['"open', '"two\nlines"', '"p;\nq"']
_NOISE = [";", "-", "--", '"', "parity", "parity 3;", "7", "12", "0", ",", "\n", "\u3000", "x"]


def _fuzzed_pgsolver_text(rng: random.Random, canonical: bool = False) -> str:
    """A game text with comments, names, odd blanks and sparse ids, then noise.

    Ids are sometimes repeated, successors sometimes undeclared or missing,
    owners sometimes 2.  About a quarter of the texts are valid games.  A
    canonical text has single spaces, newline ends and no name, comment or
    noise; its successors are never missing, its ids are sometimes
    zero-padded, a few hold one number past the digit limit, and over half
    are valid games.
    """

    def blank():
        return "".join(rng.choice(_BLANKS) for _ in range(rng.choice((1, 1, 2))))

    n = rng.randint(1, 5)
    ids = rng.sample(range(rng.choice((n, 10, 40))), n)
    if rng.random() < 0.1:
        ids.append(rng.choice(ids))
    if canonical:
        records = []
        for vid in ids:
            succs = [
                rng.choice(ids) if rng.random() < 0.95 else rng.randint(0, 60)
                for _ in range(rng.randint(1, 3))
            ]
            padded = f"{vid:0{rng.choice((1,) * 9 + (3,))}}"
            owner = rng.choice("01" * 8 + "2")
            records.append([padded, str(rng.randint(0, 9)), owner, *map(str, succs)])
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and rng.random() < 0.03:
            rng.choice(records)[rng.choice((0, 1, -1))] = "1" * (limit + 1)
        lines = [f"{v} {p} {o} {','.join(s)};" for v, p, o, *s in records]
        if rng.random() < 0.6:
            lines.insert(0, f"parity {rng.randint(0, 50)};")
        return "\n".join(lines) + "\n" * (rng.random() < 0.8)
    parts = []
    if rng.random() < 0.3:
        parts.append(f"-- lead {rng.choice(_NOISE)}\n")
    if rng.random() < 0.6:
        parts.append(f"parity{blank()}{rng.randint(0, 50)}{blank() * rng.randint(0, 1)};{blank()}")
    for vid in ids:
        succs = [
            rng.choice(ids) if rng.random() < 0.95 else rng.randint(0, 60)
            for _ in range(rng.choice((0,) + (1, 2, 3) * 4))
        ]
        record = f"{vid}{blank()}{rng.randint(0, 9)}{blank()}{rng.choice('01' * 8 + '2')}"
        if succs:
            seps = [rng.choice((",", " ,", ", ", "\x1f,\u3000", ",\n")) for _ in succs[1:]]
            record += blank() + "".join(f"{s}{sep}" for s, sep in zip(succs, seps + [""]))
        if rng.random() < 0.3:
            record += blank() * rng.randint(0, 1) + rng.choice(_NAMES)
        record += blank() * (rng.random() < 0.3) + ";"
        if rng.random() < 0.3:
            record += " -- c" + rng.choice(("", ";", '"', "--")) + "\n"
        parts.append(record + blank())
    text = "".join(parts)
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        i = rng.randint(0, len(text))
        if rng.random() < 0.8:
            text = text[:i] + rng.choice(_NOISE) + text[i:]
        else:
            text = text[:i] + text[i + 1 :]
    return text


def _parse_outcome(parse, text):
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc)
    return g.n, g.d, g.owner, g.priority, g.succ


def test_parse_matches_reference_parser_on_fuzzed_texts():
    rng = random.Random(2024)
    parsed = canonical_parsed = 0
    for _ in range(20_000):
        canonical = rng.random() < 0.25
        text = _fuzzed_pgsolver_text(rng, canonical)
        outcome = _parse_outcome(parse_pgsolver, text)
        # the record scan alone gives the same graph or message
        assert _parse_outcome(game._parse_records, text) == outcome, text
        try:
            expected = _parse_outcome(reference_parse_pgsolver, text)
        except ValueError:  # the reference's own error for a number past the digit limit
            assert isinstance(outcome, str), text
            continue
        assert outcome == expected, text
        parsed += not isinstance(expected, str)
        canonical_parsed += canonical and not isinstance(expected, str)
    assert parsed > 4_000  # both the graphs and the messages are compared
    assert canonical_parsed > 1_500


def test_normalize_priorities_examples():
    assert normalize_priorities([0, 1]) == ([2, 3], 4)
    assert normalize_priorities([1, 2]) == ([1, 2], 2)
    assert normalize_priorities([3, 5]) == ([1, 3], 4)
    with pytest.raises(GameError, match="empty priority list"):
        normalize_priorities([])
    with pytest.raises(GameError, match="nonnegative"):
        normalize_priorities([3, -1, 2])


def test_normalize_priorities_shifts_only_when_needed():
    # an even shift puts the minimum on 1 or 2; a list already there comes
    # back as it is, and d is the maximum rounded up to an even number
    big = 10**40 + 1
    for raw, shifted, d in (
        ([0, 3, 0], [2, 5, 2], 6),
        ([1, 4, 2], [1, 4, 2], 4),
        ([2, 5], [2, 5], 6),
        ([3, 3, 6], [1, 1, 4], 4),
        ([2, big], [2, big], big + 1),
    ):
        out = normalize_priorities(raw)
        assert out == (shifted, d)
        assert (out[0] is raw) == (min(raw) in (1, 2))


def test_normalize_preserves_parity_and_stays_close():
    rng = random.Random(5)
    for _ in range(200):
        raw = [rng.randint(0, 30) for _ in range(rng.randint(1, 12))]
        shifted, d = normalize_priorities(raw)
        assert d % 2 == 0
        assert min(shifted) in (1, 2)
        assert max(shifted) <= d <= max(shifted) + 1
        assert max(shifted) <= max(raw) + 2
        for a, b in zip(raw, shifted):
            assert a % 2 == b % 2


def test_serialize_single_vertex_golden():
    g = parse_pgsolver("parity 0;\n0 2 0 0;")
    assert serialize_pgsolver(g) == "parity 0;\n0 2 0 0;\n"


def test_round_trip_on_seeded_games():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randint(1, 10)
        d = rng.choice([2, 4, 6])
        g = random_game(n, d, (1, rng.randint(1, 3)), seed=rng.getrandbits(48))
        g2 = parse_pgsolver(serialize_pgsolver(g))
        # parsing normalizes: owners and edges survive unchanged, priorities
        # may all shift by one even constant when min(priority) > 2
        assert g2.owner == g.owner
        assert all(set(a) == set(b) for a, b in zip(g2.succ, g.succ))
        shifts = {a - b for a, b in zip(g2.priority, g.priority)}
        assert len(shifts) == 1
        assert shifts.pop() % 2 == 0
        # from the normalized image onward the round trip is the identity
        text = serialize_pgsolver(g2)
        assert serialize_pgsolver(parse_pgsolver(text)) == text


def test_serialize_parse_idempotent():
    raw = "parity 2;\n0 0 0 1,2;\n1 7 1 0;\n2 4 0 2;\n"
    s1 = serialize_pgsolver(parse_pgsolver(raw))
    s2 = serialize_pgsolver(parse_pgsolver(s1))
    assert s1 == s2


def test_random_game_deterministic():
    a = random_game(5, 4, (1, 2), seed=42)
    b = random_game(5, 4, (1, 2), seed=42)
    assert serialize_pgsolver(a) == serialize_pgsolver(b)
    c = random_game(5, 4, (1, 2), seed=43)
    assert serialize_pgsolver(a) != serialize_pgsolver(c)


def test_random_game_degrees_and_priorities():
    for seed in range(100):
        g = random_game(7, 6, (2, 4), seed=seed)
        for v in range(g.n):
            assert 2 <= len(g.succ[v]) <= 4
            assert len(set(g.succ[v])) == len(g.succ[v])
            assert 1 <= g.priority[v] <= 6


def test_random_game_clamps_degree_to_n():
    g = random_game(3, 2, (1, 10), seed=1)
    assert all(1 <= len(s) <= 3 for s in g.succ)


def test_random_game_rejects_bad_arguments():
    for args, message in (
        ((0, 2), "n must be positive"),
        ((-3, 2), "n must be positive"),
        ((4, 3), "d must be a positive even number"),
        ((4, 0), "d must be a positive even number"),
        ((4, 2, (0, 2)), "out-degree lower bound must be at least 1"),
        ((4, 2, (-1, -1)), "out-degree lower bound must be at least 1"),
    ):
        with pytest.raises(GameError, match=message):
            random_game(*args)


def test_random_game_priority_histogram_roughly_uniform():
    # chi-square sanity over fixed seeds; deterministic, generous bound
    counts = [0] * 4
    for seed in range(1000):
        g = random_game(12, 4, (1, 3), seed=seed)
        for p in g.priority:
            counts[p - 1] += 1
    expected = sum(counts) / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 30.0


def test_constructor_rejects_bad_games():
    with pytest.raises(GameError, match="no successors"):
        GameGraph([0], [2], [[]], d=2)
    with pytest.raises(GameError, match="priority"):
        GameGraph([0], [3], [[0]], d=2)
    with pytest.raises(GameError, match="even"):
        GameGraph([0], [1], [[0]], d=3)
    with pytest.raises(GameError, match="unknown vertex"):
        GameGraph([0], [2], [[5]], d=2)
    with pytest.raises(GameError, match="at least one vertex"):
        GameGraph([], [], [], d=2)
    with pytest.raises(GameError, match="differ in length"):
        GameGraph([0, 0], [2], [[0], [1]], d=2)
    with pytest.raises(GameError, match="differ in length"):
        GameGraph([0], [2], [[0], [0]], d=2)
    with pytest.raises(GameError, match="vertex 0 has owner 2, expected 0 or 1"):
        GameGraph([2], [2], [[0]], d=2)


def test_predecessors():
    g = GameGraph([0, 1, 0], [1, 2, 1], [[1], [0, 2], [2]], d=2)
    assert g.preds == ((1,), (0,), (1, 2))
    assert g.edge_count == 4
    # each predecessor once, ascending, whatever the successor lists hold
    rng = random.Random(7)
    for n in range(1, 40):
        h = random_game(n, 6, (1, 4), seed=n)
        lists = [list(s) for s in h.succ]
        for s in lists:
            rng.shuffle(s)
        messy = GameGraph(h.owner, h.priority, [s + s[:2] for s in lists], d=h.d)
        tidy = GameGraph(h.owner, h.priority, [sorted(s) for s in h.succ], d=h.d)
        assert messy.preds == tidy.preds
        assert all(list(p) == sorted(set(p)) for p in messy.preds)
