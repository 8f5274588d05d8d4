"""Golden report bodies: the ``body_sha256`` of a fixed set of CLI reports.

A report body holds only deterministic content (command, input hashes,
seed, tolerance, verdicts, residuals, certificates), so any change to a
verdict, a certificate or its serialization changes one of these hashes.
A change that means to alter a body must update its hash here and say so.
The printed text of each report is also checked against the indented
text of ``json.dumps``.

To print the current hashes: ``python tests/test_report_bodies.py``.
"""

import json

import pytest

from comcat.cli import main

GOLDEN = {
    ("teleport", "builtin:gbit", "builtin:gbit", "--composite", "max"): "9e38d7b526b1da2c88a7215d076d0452b115fac9e2160b7d1aa37319ce7606a6",
    ("teleport", "builtin:gbit", "builtin:gbit", "--composite", "min"): "90a8744a1110c13400f1dbcf7cc677211df2c7075e9d135edf1fc801036f0ecc",
    ("teleport", "builtin:classical2", "builtin:classical3"): "cd67f79121184e6fcccad4dbd190009ad787f8297e3691bb1e46f91760e59f61",
    ("compact-check", "builtin:gbit"): "278d13cba46044a64a6746d3f1eadfd2ffb642e0aa102c36e79762213198eebe",
    ("compact-check", "builtin:gbit", "--composite", "max"): "278d13cba46044a64a6746d3f1eadfd2ffb642e0aa102c36e79762213198eebe",
    ("compact-check", "builtin:gbit", "--composite", "min"): "eb2c316bfbf870a23e3385dfda338a64275e529181a7146b14514567f1007374",
    ("dagger", "builtin:gbit", "--structure", "gbit=reflection"): "4735046a91375db6c41241f6fa1e4cd0c8b29b45ceea57dfa741fb4d97a9e04d",
    ("dagger", "builtin:gbit", "--structure", "gbit=rotation"): "b5e50e1be15672fccbe80890cb99ede337a8e651d7bf0fc5346839893de40719",
    ("wsd", "builtin:gbit"): "81a528a25f76103f9885882ab2c3f21ebe46f9e12b0da80a55d09bef4dc53e5c",
    ("wsd", "builtin:gbit", "--symmetric"): "52b5b835b64e172ce4dfe5b6aa88ebced0b677b1590b8eb2d6110f5d045924f0",
    ("validate", "builtin:gbit"): "fb56c3ee32876505b0f1c0149f52a4df3040811275f810bc999a412a7a6bf9b5",
    ("validate", "builtin:classical3"): "989c3fb522e7718715b822b852b4aa1bdc8f4470b419c390eb0a224c9c61c769",
    ("dagger", "builtin:qubit"): "f07e5b6b0e790cf67b3bb5c41ddc5104692b398238dec4da51e737a0f98f307d",
    ("dagger", "builtin:quantum3"): "ae3fc127035179ea3688a421e8891c5dd30f934b920d02104ec36c013da747d6",
    ("dagger", "builtin:quantum4"): "f2cabb05436dfaba4c3d4e1529ee481ce42581770e6f5e515814070a87b5cae9",
    ("validate", "builtin:quantum3"): "b3c09af7ecb6e40cbc471e1bf51f3934483f734c704cb7ffdb5b37dbd0d4069c",
}


def body_sha256(argv, capsys) -> str:
    main(list(argv))
    return json.loads(capsys.readouterr().out)["body_sha256"]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_report_body_is_pinned(argv, capsys):
    assert body_sha256(argv, capsys) == GOLDEN[argv]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_printed_report_is_the_indented_json_text(argv, capsys):
    main(list(argv))
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    import contextlib
    import io

    for argv in GOLDEN:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(list(argv))
        key = ", ".join(json.dumps(a) for a in argv)
        print(f'    ({key}): "{json.loads(buf.getvalue())["body_sha256"]}",')
