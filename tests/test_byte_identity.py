"""Byte-identity pins: a speedup must leave every output as it was.

Each digest is the sha256 of an output of the package as released before
the unchecked quadruple producers and the once-per-cell factorization:
every campaign report without ``wall_time`` (written as ``json.dumps(...,
indent=2)``, the CLI's own form) at 2x2 and 3x3, seeds 0 and 7, and the
stdout of three CLI commands on fixed 3x3 inputs.  The three stream
campaigns are pinned at 3x4 as well, where each sample is checked against
a sample of the strata rather than all of them.  Any change of those
bytes fails here; a deliberate change of output re-pins the digest it moves
and says why.
"""
import hashlib
import json

import pytest

from leaf_atlas import cli, harness

SAMPLES = 100

REPORTS = {
    ("partition", 2, 2, 0): "b3f9ef63600299ddf1c5657e24a9b73494ca8b1ae00cceb9996bec2f01e42d92",
    ("partition", 2, 2, 7): "e05feee7505663fb74496cf7f2ce3d0190e105c93f355830ad3905e85a652bc7",
    ("partition", 3, 3, 0): "84b431ec684e98405664f43de671e56c41c5ee76aa1a1fd72e2e5fa1e6073725",
    ("partition", 3, 3, 7): "0c7900460a55edaa395fcbbf34fb5aa1d74165f25805c017f37f63c564f87943",
    ("thm42_equiv", 2, 2, 0): "133e9c67890fef5fbccd735118efd8941e7b876276e20eb29aa60586077458fe",
    ("thm42_equiv", 2, 2, 7): "d261e215185e2c2ac0a868f1072c6b048873be10c01e90ffef4cff87f389cb76",
    ("thm42_equiv", 3, 3, 0): "852a3d266694b923fda1a3c78a3cf7ad23c057d2697bc513c8178795c77b8f4f",
    ("thm42_equiv", 3, 3, 7): "02f89a8f078c95e4e6330bc0991dcf18b418f13d9860fc70134e58cb38e59588",
    ("closure_order", 2, 2, 0): "26fa427699dff8df9e50db7aa30f1448edd9364fef41a0757d0e4d282ad07f15",
    ("closure_order", 2, 2, 7): "d289724f9c977f2d012bf31c1e674d606c2c16085823bdf5db6dd51a41403f30",
    ("closure_order", 3, 3, 0): "b21cc8e1f6a0f90c31d276bc78debe760d44c52eee493acafc8ed3704187e6d0",
    ("closure_order", 3, 3, 7): "b27d353c9cdea7f88f720de964aa6cb059082ceb9df16248a4bb73b05427c89d",
    ("lemma75_blocks", 2, 2, 0): "f5654249402c0d9e081f801006dbbd994f32fc13b1aa26221b203f1e238beadb",
    ("lemma75_blocks", 2, 2, 7): "01d8300380bc1c9177cda1cd4e244743513e15057ea274a3d29f9b6b39d09cd6",
    ("lemma75_blocks", 3, 3, 0): "fd08e9c2bdbedb5f75c5931c624a7556f1e98d0d8ae02b02fe65424a2176717c",
    ("lemma75_blocks", 3, 3, 7): "be6d5470a405457c45ec348ac5729166eec0dc54b22e28fcf6ef0b5d1a4cbbfb",
    ("phi_bijection", 2, 2, 0): "3393dca12361ac9086a1e3a19b8c45f01e34883b78bc6bd0333905d7dfbba816",
    ("phi_bijection", 2, 2, 7): "39ba1fa27a37d5479257883238c743274f4b01fb0fb8c0f08c389cceb7a80e7e",
    ("phi_bijection", 3, 3, 0): "0b273d51c326df1756e6252c6f340161a44e50e844adb649a8709a52b0fabc92",
    ("phi_bijection", 3, 3, 7): "54633e6a43427a75cbd87c04b64e11e8a5c57310bd819890d4089ae810121ce4",
    ("echelon_strata", 2, 2, 0): "0ee7124c5c1e25cbb6be5efe8737313d52b4201db28e2dd74ba87629672eac53",
    ("echelon_strata", 2, 2, 7): "cdc524f33fdaa4e72990febb942b514dcc479169ea621f2ac602daf3c0be5c76",
    ("echelon_strata", 3, 3, 0): "dd769da7351bfb0705511a622f86ecea5600061b84b62c4f1b36c67f8d057b88",
    ("echelon_strata", 3, 3, 7): "947f8f767c6638ad5b9178dc962adad50ab9c75b2189c4705f34fa6cf09c957e",
    ("double_cells", 2, 2, 0): "8f513e140239f7b3f288239fc854659e35b89bc9e6578efeb2dc47316dbd4189",
    ("double_cells", 2, 2, 7): "5b2612df349d316bde3ac010cdcde4f393f1bbd189263bc73f69ef4b807b642c",
    ("double_cells", 3, 3, 0): "80595b7e685d37fd8ca99d663486299d67e374798eaaccc07a8a00ea39b629b3",
    ("double_cells", 3, 3, 7): "cc217131d6f62135734633ef1f0682fcf22ba4e98e861f094dc704b6d0a8f45e",
    ("counts", 2, 2, 0): "d0115cf3fcf554d13c13ccb5be3a55f48e62282a6c0bac3b7c128f9a5786e3ad",
    ("counts", 2, 2, 7): "c4bc317df660cc5c86f3c44cfa0e4c8e4d09b2307124e051c70cfd35d17baca7",
    ("counts", 3, 3, 0): "486b93e2fc65c694aec59da178e59e04a9167265eb254236ddb00ebf2c837b95",
    ("counts", 3, 3, 7): "1d8bddfbb401db0c6f1f9d28b2c07c1e0a8b3ae9e0bd74b20a373e5e1ceb921e",
    # 3x4 has 1,066 strata, above the exhaustive limit: the sampled branch
    ("partition", 3, 4, 0): "1460adc4639b9a49c74a5f71e4b2c8f81d7fe3a82fecb04d2ce551c846d36483",
    ("partition", 3, 4, 7): "b5e5599aa5f7fa157c8130cd20823728b399f6cffe95b978781ab61b5372c122",
    ("thm42_equiv", 3, 4, 0): "8c0d68c6c5f6ea4e9985ef51682b9b5c4f95569ee91c5d9709546baa40009aa3",
    ("thm42_equiv", 3, 4, 7): "9eeca3212aab30ec1337537f2e2ea899d579014a9e690105ba51f7bbfec5e90b",
    ("closure_order", 3, 4, 0): "e18ea02f130e316de89d9aa49e3da62c66e9616a6b10568af9711de4f9acce58",
    ("closure_order", 3, 4, 7): "3c950d2a909cc5aeb5565edffd4a3444e50341cf898329270ef8748dd9e698e1",
}

CLI_OUTPUTS = {
    ("dbc", "decompose", "--w1", "3x3:1->3", "--w2", "3x3:3->1"):
        "1b8b856249124af205ad3cfe90b4f06f35bffd87e5586ecb50b337faa34b44b3",
    ("dbc", "dense", "--w1", "3x3:1->3", "--w2", "3x3:3->1"):
        "1bbc4589a502d24949fb661c1409babfab25f2544d38ae7640cc7263a6be0b35",
    ("sigma", "phi-inv", "--w", "6,2,3,5,4,1", "--m", "3", "--n", "3"):
        "15836abdfe6564fd4bff97ca33f281e9cd219812e0a702e39627f7dea20092a0",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_campaign_is_pinned():
    assert {key[0] for key in REPORTS} == set(harness.CAMPAIGNS)


@pytest.mark.parametrize("campaign,m,n,seed", sorted(REPORTS))
def test_report_bytes(campaign, m, n, seed):
    report = harness.run(campaign, m, n, samples=SAMPLES, seed=seed, threads=1).to_dict()
    report.pop("wall_time")
    assert _sha256(json.dumps(report, indent=2)) == REPORTS[campaign, m, n, seed]


@pytest.mark.parametrize("argv", sorted(CLI_OUTPUTS))
def test_cli_stdout_bytes(capsys, argv):
    assert cli.main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out) == CLI_OUTPUTS[argv]
