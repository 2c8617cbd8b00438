"""Byte identity of the verification reports, text and JSON.

The digests of the full report were taken from `charclass verify --suite
all --degree 24 --rank 8` before the expression elaborators were folded
into one; any change to a case id, its order, its parameters or its outcome
moves them.  The theorem1 digest at degree 48, the oracle workload's top
degree, was taken before `sw` read per-bundle degree buckets and before the
oracle's test pair was memoized.  The relations digests at rank 40 (every
rank-convention case at degree 24, and family 6) were taken before relation
left-hand sides were built as tor keys.  The relations digest at degree 40
and rank 16 (products of degree up to 40, and convention cases the rank-40
run at degree 24 does not reach) was taken before relation left-hand sides
were built on V masks and before cases were shared across ranks.
"""

import hashlib

from charclass.cli import main

TEXT_SHA256 = "6f9a8a89d584b466a4afe382832770543cd2302634079e1ad2df2e5f57d31262"
JSON_SHA256 = "dfbaefff016fb33b1a39e1c42a330e000d24a6e156c26f386e7d309329795397"
JSON_BYTES = 97_251
THEOREM1_48_SHA256 = "1f6bfd07a4d53e9d2bc9fce6228a932436613d2cf82694af84b3be6ba1e02771"
RELATIONS_40_TEXT_SHA256 = "302149819bcd32652030408550fb12fcba7c33d72f655eff82364058232e453f"
RELATIONS_40_JSON_SHA256 = "9b07e86b0b64eccf777df11b321aa8a63c93d936bab8a8d8f700deea4841c512"
RELATIONS_40_JSON_BYTES = 1_184_715
RELATIONS_D40_R16_TEXT_SHA256 = "64526d049ce5c9a9d60ae4938906b795ae7ad89f319721087f25ac6e36449226"


def test_verify_all_text_and_report_pinned(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = main(["verify", "--suite", "all", "--degree", "24", "--rank", "8",
                 "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_SHA256
    blob = report.read_bytes()
    assert len(blob) == JSON_BYTES
    assert hashlib.sha256(blob).hexdigest() == JSON_SHA256


def test_verify_theorem1_degree_48_pinned(capsys):
    code = main(["verify", "--suite", "theorem1", "--degree", "48"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THEOREM1_48_SHA256


def test_verify_relations_rank_40_pinned(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = main(["verify", "--suite", "relations", "--degree", "24",
                 "--rank", "40", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_40_TEXT_SHA256
    blob = report.read_bytes()
    assert len(blob) == RELATIONS_40_JSON_BYTES
    assert hashlib.sha256(blob).hexdigest() == RELATIONS_40_JSON_SHA256


def test_verify_relations_degree_40_rank_16_pinned(capsys):
    code = main(["verify", "--suite", "relations", "--degree", "40", "--rank", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_D40_R16_TEXT_SHA256
