"""Catalog, random, normal-form and file-fixture games serialize to pinned bytes.

Each digest is the sha256 of `json.dumps(serialize_game(game),
sort_keys=True)`, so a game that the catalog, a random family or the
normal-form reduction builds differently from before fails here, across
processes and versions, which `test_random_game_is_deterministic` (two
calls in one process) cannot see.  The payment and cost forms that no
catalog or random game uses are pinned too, so a change to how the
codec writes them fails here, not only on a round trip.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from contestq import build, load_game, random_game, reduce_from_normal_form, serialize_game
from contestq.instances import FAMILIES, INSTANCE_IDS

from conftest import make_game
from test_gamefile import CLOSED_AND_MATRIX_PAYMENTS


def digest(game):
    return hashlib.sha256(json.dumps(serialize_game(game), sort_keys=True).encode()).hexdigest()


CATALOG = [  # (instance id, build keywords, digest): defaults, then other sizes
    ("ce1", {},
     "69c8a791df534ce4f93ff86ed9d1531a41c1e92d59e7a5690ccc9a4ae04e8019"),
    ("ce1", {"k": 3, "n": 4, "Q": 4},
     "69c8a791df534ce4f93ff86ed9d1531a41c1e92d59e7a5690ccc9a4ae04e8019"),
    ("ce2", {},
     "6fffc639c340675cab471d0ee17d68549bc5be18ce365edd7147fffd38c40b70"),
    ("ce2", {"k": 3},
     "e4092435ebcfc01a0718e1273044ecfdf00e54e2f91ee9dd9a5efe7d190e0cc2"),
    ("matching_pennies", {},
     "ef79c6d3a7256d7b865693ae24031e4ec2a3814a484299b27f0234e19048c381"),
    ("matching_pennies", {"n": 4},
     "ef79c6d3a7256d7b865693ae24031e4ec2a3814a484299b27f0234e19048c381"),
    ("fip_voluntary", {},
     "4dd4b0a08dc38e352443fa8d75901d51da8382f29738c72c370a088d7eb0ed15"),
    ("fip_voluntary", {"n": 4, "Q": 2},
     "8cfb2830aec7b67ab5fe873402ae1ce5b1c662253cf172296888b03758103612"),
    ("fip_mandatory", {},
     "15b053bbb951e542740982f5f18efc0ebaa02c84e208e422be73e5d294af7a13"),
    ("fip_mandatory", {"n": 2, "Q": 4},
     "b1473ddd8943907cff2acd0a7e321afa23ce7bce676cb50de60b32cfcb8756b7"),
    ("natasa", {},
     "bee1e4c63fb03774afe7e9b0b9d793cfda13d391d7d4a20ad8c5fa8130bfb416"),
    ("natasa", {"n": 4, "Q": 2},
     "ff52f21846e3b412a021fc093fe749a8d99bc5f2d0f0f132807aff690196d3d7"),
    ("natasa", {"n": 2, "efforts": (F(1, 4), F(1, 2))},
     "65fa1c6f7dba41773aeab163dd96a0c6d83bfd92d8e13d491255f8314cc54e0e"),
]

RANDOM = {  # family: the digests of random_game(seed, 4, 3, family) for seeds 0..19
    "oblivious-invariant": (
        "c2ce263ed5ef04bc05563219c3d486c6e142b0275bc7baddc7b539bebe1979b9",
        "4fb7c872760e6548c5ebc96fc6b6d4c275434431321bdfa57e3193ccec43fd8d",
        "63d011cc501c83b8e05d7b3b5a8848e1451eaec5cfd30dc81b3dffde536252f4",
        "ce01e08942f86f75c32d891430a60f4286ed5c97aa9df88b423d1198494ef0e9",
        "8ab117f780a108388a6ed07b2b2cd1f28ea347bed66f938217b5ba3c9716f8fb",
        "ea639a5eceb25941d9c122456a9d4857d9f5461efd11baadbf01219ad2a7392a",
        "70626df303b8979ec988313f148a3419754275476a1fd15d5e2d07e7424b8fc0",
        "92599d5c0421917fcccd985b3d05cadee030d20780b5219c73946713ccd8e773",
        "60c95d61e5864308d1738279ca52ae9258d6242b0d51abea721b16b65559eb7e",
        "061fecc578aaf3f32e40b1b585e54a3588e68f57188f490a6ace8aa6dbbcb578",
        "c22ebdee640518034ddf1490e034fd0a9928ba73d899b86e5643861dd9119bd0",
        "8fe3c15e311bdd2ed8a9c7c27b2b95c69c99b042d1e3e1bcd4fb57671eb4e6f3",
        "5379263af5589547689d8f53d873b7a448eeccc4433a01c05271227221d6e383",
        "7a400cc7dcc28ad6464d31f1e74ae5f48bff764d031a155e07f52c86f846ece3",
        "e13465d6f4849bf0157c3e4a0203d913f7390c38212c41dbc4e3c0a49d523924",
        "98fe78d383e66a617eef686da0af30f67476ab39918ecbf64a61216057c445bf",
        "52e6c196a62a9b3d6a46b4f10450174832a920ad907835a67a8e29786802cb27",
        "aea4cb7d67f4af5757eff9ffff7e25c613e4aa6d0a6f778782f3f60474404e90",
        "82124d23886c9b8fa878649d77ff8bd29157cf77a4ea9bb96ce9e10fead4b103",
        "e7f5bff8e6aa79e0e21f052c705bfdce6683855ca9543bc93eedf5ff2a4475aa",
    ),
    "concave-specific": (
        "afac72fedf9adbe833da418ecf277ce1130f4df69c00b7284d4caf2d03e92be5",
        "c854b324dcbbb38a0744008b3b0df9f61c08193883c89f62892124b76839b662",
        "c7dd1f54e7c813a38b73e66714ae70eae21c9d1ef7cc4fea920845f05c8b5f9e",
        "230229c3ed1d2465fb2328ad7e21adf9895b6791b71de90e29439fe3f3e92d4c",
        "2ab11f55d84a11ddf8b2939f145870313d03e954666b14e7f023d3c9fb33c470",
        "5083be93202e70ff785af92fc498e0c9b74f8db8cff7d82683b723e4886eefad",
        "26f820cac9598b380562c70b99f2d20256bc422938c2ebae014c0538bb7644aa",
        "e1081be85737fd7d52f049a94f2c861aa2e216b4236466a9068c4f9f0ee475f7",
        "a5f1e86637fad76b584dee7e976369db3005b5a6c68f85a96202891a64bf462b",
        "a9579c706673014443635cbd7ac445624729047a2413e22ae5e1018d306ad5ce",
        "fb343fde6b9215c1a170c0bbceec8bfd3e37ce8da2be8f0ef8d763fbc1affad8",
        "04aed641e77bb0088d990f11d7abe4ebdfbff77b461537046a7c1cafd4499940",
        "f48a4fcfd50d96f79834ce7d1a74532cd4a30189164588764763af262dbe7092",
        "c33b79134018a08764ace153c264ea767c225d545cfec7407342509b37b5e825",
        "80f6d0caf5c0b04f113919f3fc33e0ebcb1b16196dc2b7fde83e9fbc6ff53d46",
        "fe44f1aef09220e5faa4727beb2ac5896acd734739de82ee56be278076644dd7",
        "5dbe11071df5f134e0a9d54245d0e83ae1de0d6ba583a268610f43476df87302",
        "af3cce46aa34a848a6b9caca70df490ced1fe3666db83170f4b6ad8996012a62",
        "e7f23c56341c241caf729a8ce16185863025eee1c32203f0d281c9a938b77661",
        "24d1d034b851478c562af9a9e966bf2a86be8acc2617718c248a7ccb936a352a",
    ),
    "concave-invariant": (
        "7f94018981a2fa4beecf02717331979b4451beb649d1e59b0ace4607db84f4e9",
        "d70dadfb51102c0cf7e5596360a09ba0990b439967c2e3497a1bf3b7a483d3c9",
        "ee87c7104f08d9e4a7e7ed72dd6667ff509a558124b4366933a7eaaf22e4ae17",
        "af510af812160f08777b338cae5617f15b2cf9b90a554a8e2f77793807046e52",
        "7bacd6ded0eff93026cce30a93752b7a98ac79eabbb3284b280ebc743047bd5b",
        "f35c3235db13f0520f6d552c473d5c0d8e495cdd6b70910470d8a85c79d9e5c8",
        "d6a24c11517c7d295a73ab88a1eab471df4bd050bd5606e734f56a05d214808d",
        "b9335d4fc528a6a336795b4aebab70df78ba1049b33d6482be105997889bfb72",
        "e36837dc0940693293f91a71ef7c87840840e92b2063a2044205b7e5832931fd",
        "e4492ca0adff1a85afa47fbe609aeab13de743c31e1c2524bb748aa4822cb6ae",
        "3231ca9c5f892943fcd52195cf5386e5dcce2f9eb6113bf9a012fc0e2d166b15",
        "8ffe7c3c11dc6bd4637416bbc8c43ce8a2ce1b2791990a4726da25a1a478f0b1",
        "c4a06551d5bad1c3625b232606bb8891d0bbeadb8d5104e089ebe40c7959f1b3",
        "4c9b71aca79d7e9436efebf57420279bc8dd392f636d01a8d44c51bd7b77ae21",
        "09b1ba8d3fb1fca5c27fa964801eb290c2b91650e09078860a13debfb52e6c8a",
        "d335feb7d36fb8fd635aad8036a4de362751741f59cb49c18edd0e4887ec52f5",
        "8fa82ce12d6f39be940d136008c4b83460525e7a19761b74e0bdd14092cd95fd",
        "48c0e6a34d0e66369954e25da71c67334bd1c9466529dc53aca5159e41f2ea9c",
        "4ebae71f6509781edd19ef57a9d17b85946a3f800a8042cc76931647b1c2324d",
        "dd5ea47357081717d10721ec8bc494dc37e26153c86c06a1dc5c1aff1faac224",
    ),
    "proportional": (
        "59664775e8a3026efa83397c33ce33d2cec5c4faee18e91a04d1aef7a37f15d1",
        "86d20cf8dc863443b6db882ee7375c3c4bad7b6e34ca70140392cfe82553c32a",
        "9a37d74044a25f8b3e6ee5068e50588b63a1b530dddb95a9a64f4efe5f62c7ed",
        "e7b14e8799fac0640b511d54d29715549e98a593c49b59ab2d47588459415f7f",
        "0199b653b4316059dceb659695a3986c021319c6d899f0467c5127edd4320a24",
        "003f4067156196ebf956b78f433c5c9e76954c99237049556681cd5898a9dec3",
        "357a2613deb79a0e32044a454b1415f04283c4e2e11516ab0957a3727f29b874",
        "5a829463b3751448d4db0542bfa79d8f5a54a965c8befaf9451ee765ac25acae",
        "a2d7296cd9a0bb679a3bc9f04cd3161e671ee9c6572a28f9ee9f60ebb3f10bc8",
        "20a7bf7953694a3eec7a664ce8a2e524869cbea34e135d3128e12d7bcb36b867",
        "5bf2f4763e1c83e85fbe92b2b84aebd97198f08de1c817634c639dbc6c8ba9cd",
        "2ab8023532f3e4ed47862f2f9baeaa197e7d445176021ceac8b57d1d18f0eca0",
        "2cad7c4a49f50afd931c7d80f68be2cc88b341428b0f8653819ea1758458457b",
        "cdb20fe61b8d8b15c9bfda12bd7f06ce822848ac06334bec7b647d87d2a35eb2",
        "1371d9c2f2c90582c4f1ce2c46973e4be581b69e0af4ca110151e51020983b2a",
        "fbe60ba49a3ad0021eb23c91851a8242a728ef9db72329fbcc301068f361b90a",
        "d6f9b3a8ab43408da78dbf266baaa7a823987a65d5e047cbddee69d271cf33c6",
        "b59ccfb7769c91275797f4c1fae961969ebce395ee3c7ee2c0042a4e2d02fe91",
        "1c339810fa7e634b8205a71d7895616654d25397223b061786774b68774f2b4c",
        "3e3066613c724a27b0b0e0ef7c86d2f11498fc0831966f2408c95b8f70973d8f",
    ),
}


def _payoffs():
    """A 2-player, 3-strategy normal-form game with distinct payoffs."""
    return [{(a, b): F(3 * a + b, 2 + i) for a in (1, 2, 3) for b in (1, 2, 3)}
            for i in (0, 1)]


NORMAL_FORM = [  # (reduce_from_normal_form keywords, digest)
    ({}, "30a0cfbfb2d77a1888bcd34f3597d75fe459f0646c17e8ed09dd765698d974c8"),
    ({"efforts": (F(0), F(1, 2), F(3))}, "5003bd7522fe6f53c85c4e2bb6e018bded9536b85717867921c0db50da21d765"),
]


CLOSED_AND_MATRIX = {  # payment: digest, on the game of `test_round_trip_random_games`
    "equal_sharing": "e398ebfa3c2df9e6bfd24eb51c497dea47f60727818663ff07a55062b5f3e439",
    "ktop": "261d2773e68649018ed1f54e676fb08fd7f14d5dca28b5178523a9ef6150d96f",
    "per-player-matrices": "f51503f37f23ec85e2be46533da3286fb8933c03648d2c82678078686f81a51d",
}

FIXTURES = {  # file under tests/fixtures: digest
    "tablecost_contiguous_miss.json":
        "6a3b09807bf10f479856ba78af82a4a68c064e924a8273f3838f66776f9f0521",
}


def test_catalog_pins_every_instance():
    assert {iid for iid, _, _ in CATALOG} == set(INSTANCE_IDS)
    assert set(RANDOM) == set(FAMILIES)


@pytest.mark.parametrize("iid,kwargs,expected", CATALOG)
def test_catalog_game_serializes_to_pinned_bytes(iid, kwargs, expected):
    assert digest(build(iid, **kwargs).game) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_random_games_serialize_to_pinned_bytes(family):
    assert tuple(digest(random_game(seed, 4, 3, family)) for seed in range(20)) == \
        RANDOM[family]


@pytest.mark.parametrize("kwargs,expected", NORMAL_FORM)
def test_normal_form_game_serializes_to_pinned_bytes(kwargs, expected):
    assert digest(reduce_from_normal_form(_payoffs(), **kwargs)) == expected


@pytest.mark.parametrize("payment", sorted(CLOSED_AND_MATRIX_PAYMENTS))
def test_closed_form_and_matrix_payments_serialize_to_pinned_bytes(payment):
    game = make_game(3, 2, (1, F(1, 2), F(2, 3)), (0, F(3, 2)),
                     CLOSED_AND_MATRIX_PAYMENTS[payment])
    assert digest(game) == CLOSED_AND_MATRIX[payment]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_game_serializes_to_pinned_bytes(name):
    assert digest(load_game(Path(__file__).parent / "fixtures" / name)) == FIXTURES[name]
