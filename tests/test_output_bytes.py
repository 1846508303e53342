"""The bytes of every file a small README workflow writes, pinned by SHA-256.

A change meant to leave outputs alone shows it here: any moved byte fails
the test and names the file. Only sets whose bytes do not depend on the
BLAS thread count are pinned; each digest below is the same under
OPENBLAS_NUM_THREADS=1 and =2. The workflow takes about 0.11 s on a 2-core
x86-64 host, 0.03-0.04 s of it the d = 64 detector.
"""

import hashlib
import json

from squashkit import povm
from squashkit.cli import main

from helpers import written

#: Sectors for ``squash construct``, as the command line spells them.
CONSTRUCT_SECTORS = ("4", "2,2", "2,1,1")

#: File, relative to the output directory -> SHA-256 of its bytes.
DIGESTS = {
    "attack_ideal.json":
        "71846507b3385b1ad03b3500e4e97872e15161b38319550fe17aec4f1808d7e6",
    "attack_m0.json":
        "71846507b3385b1ad03b3500e4e97872e15161b38319550fe17aec4f1808d7e6",
    "construct_2,1,1.json":
        "78749646e4990e9258e4cf4789e072fa5afa7b66100ab5cd3332ede211163500",
    "construct_2,2.json":
        "6de9cd4d2ebc0e164e794f588eae8f3aed183f985949a7b4137ee29b25c7790a",
    "construct_4.json":
        "432b7b4fd2a8e41501a964d357cf2d0bbf973ea19f3767cdd1021e4553564c29",
    "detector_N63.json":
        "9ed4868d0ec73cf724d87f7957ce472af17a61336bf73261d2e30b72800a8e45",
    "found_c2.json":
        "dda9aed15cd2acfa543177e7cd57b55f97e6eee9a13ae710b48d853359ab13ad",
    "found_c4.json":
        "e2fa9740b80cef7360bc6eccaa52adca53c0508a87e059594a040c39fd8742fe",
    "m0.json":
        "0e366820a74d93fb10baee5c60527a598df9d753b1e08e8b9e60406fbc1c8569",
    "m0_report.json":
        "c7686c95ac795b1e22141095c925ac313d07fd1bee56bbb1c24f43ad311c2ca1",
    "models/detector_N0-0-1.json":
        "a286d6065a1f6d13996b40dcd7fd28d0890463e5e478e0a5db89cf2438158e55",
    "models/detector_N0-0-2.json":
        "6620ca1e567d6b5f15421ff5519dc3676800d7d967778098c574a1ff20c492ab",
    "models/detector_N0-0-3.json":
        "0caba6dabb6c3f111cf4d5356ba4312b60893a0b3ca6652bbf0e0edc0f8a4e9a",
    "models/detector_N0-1-0.json":
        "fa609255f43a8acdc6e7ff73ba69ef56c1121955a06c1cc7502e690cc40cef05",
    "models/detector_N0-1-1.json":
        "b6f8568128c4e1733e2ced5b15c0020e1581b2ca7d613cc39631d7eea83a9df9",
    "models/detector_N0-1-2.json":
        "78885540faf4e571fad3ea1cbe30fd0d18088357ecbb8ecdb7fb3c2110d56d63",
    "models/detector_N0-1.json":
        "1342c7e6f84a87d8c3c9fb3ac3a282d45a3d2d147525c429c04e4c1f288075ca",
    "models/detector_N0-2-0.json":
        "24804404da7c03e7c295b83a2694696b540fdd8790941abd3f432e4d060e9275",
    "models/detector_N0-2-1.json":
        "969a2dbfc2971e020cfea91546723ce72eaa72cd17aae6663ab7e55150ed4c7c",
    "models/detector_N0-2.json":
        "25fc34a6d1f7ca24a37040cf4a34a464988fa59690995f16a52f8b6c10fbb024",
    "models/detector_N0-3-0.json":
        "ae065e0ec1089a16c7b7ef0d6f3f1f43843868e40d5fa8d43273464cf5149381",
    "models/detector_N0-3.json":
        "291c9999e46531f59d7318003a6744e213887706a16eba2d07df2f852af2aea7",
    "models/detector_N1-0-0.json":
        "000bb4589199e3f76d5ba0cfa8ed199d813bc96ccd4e9f96395afa654061b6c8",
    "models/detector_N1-0-1.json":
        "01947eff25650d65eb4980e6e58030a67fd4444453e30c50c792deec3bcb1300",
    "models/detector_N1-0-2.json":
        "172f93af7f68f60419a2d8a783f29e685961fa5f6fc6d91c74cd8291ee88e5d3",
    "models/detector_N1-0.json":
        "889f623114c59194800ebc4d21b8d9e2508691340edfae458c2f464ca8ca273d",
    "models/detector_N1-1-0.json":
        "e1fe5bf303d611a2d44e40131f7654c9674afef8f913f8df64c294b50996bc05",
    "models/detector_N1-1-1.json":
        "ca6cb17e8bcf9bbe3acb95df30b5a7d0af30e80b7e808c3dbbefdb349e38efcd",
    "models/detector_N1-1.json":
        "68f852f34df206efec9b0656ee5560a375e5c836b4a79b951a9679fdfbf9fd37",
    "models/detector_N1-2-0.json":
        "97759feaca7b045decbf40ff941707bdeeb4257316da4dec8912fb6db909c70b",
    "models/detector_N1-2.json":
        "7560862c9a3de27d88d0a1a351049f4a2d17034f8875f259344c5d95c70eb7c4",
    "models/detector_N1.json":
        "ca844b8ecb3b319f813b11a4a2df982014d02fd4770736e1fd252f4a55760bf7",
    "models/detector_N2-0-0.json":
        "bcea8a595b0f376b042d69d95ffd466028948cc8b50152dadf1c7320bc4f8adb",
    "models/detector_N2-0-1.json":
        "a146953c2c1c48ea4a79572e52a79e1875ace4f5310fdf0fbf31033d877771b6",
    "models/detector_N2-0.json":
        "3bfe8c081b80569b34dd824046df5c6ac3c3cddc27b39f7d84a7bfc6a20c66c6",
    "models/detector_N2-1-0.json":
        "267b83ab09a74340aa8a8abe1c683de916936ee2cf5116f8c399b2a191686769",
    "models/detector_N2-1.json":
        "d1822bdfd94f74b09b398d44b434b74346127fc311c1976602a8374e80df04ac",
    "models/detector_N2.json":
        "f1f5f1be8cc13c7c9c39cac536735ed2fc13fce226b0e654a6bd8a0d51a7f078",
    "models/detector_N3-0-0.json":
        "b267233264dc2158c908e3ecf5615e285511076a404ef241575419c39ef046a5",
    "models/detector_N3-0.json":
        "cc3bd44de842628033c0c634c41b808f543cda4917bac2b3a62dc70ae1ec4d04",
    "models/detector_N3.json":
        "e31236cdac267ae996be2e39c9b5e3805e0a81319498d8924768d5fd2db3f389",
    "pulled_c2.json":
        "ca053d70e5bb221e8366754cb7d90403705479e523eb68b05abbe3cb4ae5e3a5",
    "pulled_c4.json":
        "12d6d6b495f9da18c9e8ef89af861ec2c10627b30626569b785de4a51216135d",
    "tilde_c2.json":
        "834e7c92cd11d3e05064f69bd026bfc03e0a4ab0150b228a88e39835b88443bc",
    "tilde_c4.json":
        "129a2a96d7eba5f19c563f8301f4b4fe3d780c20a9b2fb46fa22ec58e39800b0",
}


def _run(argv, code) -> None:
    assert main([str(a) for a in argv]) == code, argv


def run_workflow(tmp_path) -> dict:
    """Run the workflow into ``tmp_path / "out"`` and return the digest of each file it wrote."""
    out = tmp_path / "out"
    _run(["detector", "--sweep-max", "3", "--out", out / "models"], 0)
    _run(["detector", "--N", "63", "--out", out / "detector_N63.json"], 0)  # d = 64, 1.36 MB
    for sector in CONSTRUCT_SECTORS:
        construct = out / f"construct_{sector}.json"
        _run(["squash", "construct", "--sector", sector, "--out", construct], 0)
    _run(["nogo", "m0", "--out", out / "m0.json"], 0)
    _run(["squash", "find", "--povm", out / "m0.json", "--out", out / "m0_report.json"], 1)
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(written(povm.povm_to_json(povm.ideal_qubit_povm()))))
    for name, source in (("m0", out / "m0.json"), ("ideal", ideal)):
        _run(["nogo", "attack", "--povm", source, "--trials", "20000", "--seed", "5",
              "--out", out / f"attack_{name}.json"], 0)
    base = tmp_path / "base.json"  # the (1,) set, written as README writes it
    base.write_text(json.dumps(json.loads((out / "models/detector_N1.json").read_text())["povm"]))
    for group in ("c2", "c4"):
        tilde, found = out / f"tilde_{group}.json", out / f"found_{group}.json"
        _run(["nogo", "symmetrize", "--povm", base, "--group", group, "--out", tilde], 0)
        _run(["squash", "find", "--povm", tilde, "--out", found], 0)
        _run(["nogo", "pullback", "--povm", base, "--group", group, "--squash", found,
              "--tol", "1e-6", "--out", out / f"pulled_{group}.json"], 0)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.json"))
    }


def test_readme_workflow_writes_the_pinned_bytes(tmp_path):
    digests = run_workflow(tmp_path)
    assert sorted(digests) == sorted(DIGESTS)
    moved = [name for name in DIGESTS if digests[name] != DIGESTS[name]]
    assert not moved, f"bytes changed: {moved}"
