"""Byte identity with known reports: the sha256 of stdout for fixed commands,
of the cache files a cold `table` writes, and the exit code and stderr of
refused command lines.

Run-to-run determinism is tested elsewhere; these digests pin the reports
themselves, so a refactor that changes a byte of `verify all`, of a `dl`
pairing or of a table fails here.  A deliberate change to a report updates
its digest in the same commit.
"""
import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from weyl_dl.cli import main

GOLDEN = (
    ("verify all --format json", "91414cd4761ece9cdc789436cf27f57b61169b60cd9559bd32624892e71ee4b6"),
    ("verify all --format csv", "9088753235194fa5d020086812f3fd1afcb140ff67b5ddc0da7e9535f9afde71"),
    ("verify all --format text", "44421604bf8ad2d86f4545c292fb1a6987a3253ec267425feaac898fee3aeedd"),
    ("dl A 1 --format json", "4b2f69d775b1091da931a40c1b7de2ca39d19cce335e8b4e806eca5cd8842bdd"),
    ("table A 1 --format json", "a7a8d85f146568c5d91add41de7cc27660600f9e6f06cee3e2aed216ffa0a05c"),
    ("dl A 2 --format json", "4c04e5f563d4afab7c4ebf26eef2b1d5606ea89c901b903c770ed019c3e5bb59"),
    ("table A 2 --format json", "3a840ee28efa60971b0167de67e03861aa44fbcfc2aeb6ecbae1a08548f9656f"),
    ("dl A 3 --format json", "aa57649de1272b60ef6562c31d66a0e6ab8c6a737415d95b40558ad1c76c1278"),
    ("table A 3 --format json", "c3168c166eb7af34c1d7f6ccdc46ea063ef8df70f92b653c829146c11b52e4d9"),
    ("dl A 4 --format json", "ea5521c6f5412e23fafd103db352910a728f6befe9b8823f9d3bec925c919030"),
    ("table A 4 --format json", "fc3ce9c4bdc3ba3e8e63a8a83d3dcf3d0e1bc87267a873f31063c9962e4b9ab4"),
    ("dl A 5 --format json", "d671dff3be75dd35ac18016723199f71122b4bb11299ef1c3e1e2e3b405dbbea"),
    ("table A 5 --format json", "0cec04598079192d178017bf40bcbaa92315b0af64933ee6cd21ae45ae943e41"),
    ("dl B 2 --format json", "4ac331ba2585c1bd87e0c3546c3f10d9fa84c4dd0ff4ef9e0a8e7c7844ad711e"),
    ("table B 2 --format json", "3b4c94cefb62d87897cfae9aa2cffde527d71840f32a52e30a10092eb4d61b7a"),
    ("dl B 3 --format json", "7f5adc454990196d43152c06e345b66bad8ad869d72e7601abd7d6f7e031c713"),
    ("table B 3 --format json", "e957359fbf1d1ed35d3ca4fb33d3c0ee62a694680e31d07f39edc655d612447d"),
    ("dl B 4 --format json", "799bb173d9729798e9faf97b7a218311c682bde4a2bfb55a597afefc15ad7e39"),
    ("table B 4 --format json", "a01016249c50fc09f4541da88daad97cb6ceb338f028c72dba0b1cb63a367715"),
    ("dl C 3 --format json", "745f5fbf7895de9dc01224953b00cec2f5b1bd0b0573e57d254d41395d9afe71"),
    ("table C 3 --format json", "8df61a653354cfcf8e09ba394d1aaf8079126ddc2f9084eaf33d6c6f0e714eaa"),
    ("dl D 4 --format json", "a981be7eca5d7a6785f19c9586e1f28b447af57ec8277182403c890019a77082"),
    ("table D 4 --format json", "2db933eac051902e1c4d8d8cc25de633c5f43100ade04a47623b0ad45d4192fe"),
    ("dl G 2 --format json", "5eca39d9da92dcb33e39fa190cd659b9761e46ce12c02219e8ff31895e58135d"),
    ("table G 2 --format json", "a50d0bb8d63a9e4f5b30cc19572cd2781f380b3686e25afb814c70b69562e240"),
    ("dl F 4 --format json", "89c13913521e698d2d580643cc5288022158a4241a6c86e6f8fc84a52748e04b"),
    ("table F 4 --format json", "c6a8bf7bdfc7c54fd25280b337486aba562f513a2b6c955fdd8bd8b36796dd3c"),
    # beyond the roster: tables split cold, before any command below loads them
    ("table A 6 --format json", "670ad53970244662906d74aebf798d144096489de8e0615e9bf8d50d3f87bce7"),
    ("table D 5 --format json", "dad50fa62ceff3dbe9182cfd817e3e2fd63a074ad86de15b0ed7506c4cbeb64a"),
    ("table B 5 --format json", "374b52c73b805acaf3df3ff39e9b2ad6b75afe0256cc1c43b53fea9f4e9df2f6"),
    # beyond the roster: DL over all 64 and 32 parabolics
    ("dl A 6 --format json", "7232a261d7717b349cc73bcda4a4c1122dce7795dc4557a8e1a518ef48167053"),
    ("dl D 5 --format json", "63881aebba1cec856be8a89611cbf6aa4e8f1c5642d54221ebf7168056ebea91"),
    # rank 5 runs neither Frobenius (rank <= 4) nor Mackey and transitivity (rank <= 3)
    ("verify B 5 --format json", "9a25fe640102628361e0a8b1e4113ff58b2ea98cb4f13229f4e26e7de2e3a894"),
    # verify of one type, and the csv and text reports of table and dl
    ("verify A 3 --format json", "95e5fe8f27053bbad0e1c23188e8b577b0559155d3c70d957242fb4e97be1012"),
    ("verify A 3 --format csv", "6c5c75a4b9648ab5ad8948ca16548d29b5122e18709815851a8f4b4c4336d005"),
    ("verify A 3 --format text", "7d2cd2ac069978ad6b23b32d530b6dff67091642d3b8629616ebe065cf28454e"),
    ("verify G 2 --format json", "c08b21d3cb718e808a96c0b96af2ef78b4841ebef59149ba61a8777c39fc3550"),
    ("verify G 2 --format csv", "05618b87bcfc80410011f5f362a18619ad70e541864a012061822084dc977126"),
    ("verify G 2 --format text", "c3d51c85ecdd2bbd3dd01c5202b537f83bddc02fd4636f5c7bc789c90de97c2c"),
    ("table A 3 --format csv", "1dc6cca6c69054407e5892deeede15d21cd3e64fa2c96920ce66ca2db9f41a3e"),
    ("table A 3 --format text", "4d701cba7e70b61078652e98319f20e6d0dc9e47b0cfd08081f6ec73b53be86c"),
    ("dl A 3 --format csv", "7d0acd3b303e42944d2bd1472960438b9ca1cfff9bf95c08e4bee8ce154fea85"),
    ("dl A 3 --format text", "6863ade58831a6c28fc3d504c62522bd26739e7f0ed0f91327c2146739cd18aa"),
    ("table B 3 --format csv", "9acb0a50aad747e5930651bdea369b6090e6b6ec885e053ac536f9c51959b9f9"),
    ("table B 3 --format text", "f4211bc28a412093c90cddfce5b22956893ede9adfcc427731544e9017810018"),
    ("dl B 3 --format csv", "0bdcec4db7a1c5c348581ba83f2cfa9555c573771e3f6e24ec190c171578a7d4"),
    ("dl B 3 --format text", "05b7bf46da1b9880c4e2ee33e96cd9fd796fc1e306536e6bcc1f4003db6e48c3"),
)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One cache for the module: the first command splits a table, the rest load it."""
    return tmp_path_factory.mktemp("cache")


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_stdout_digest(cache_dir, command, digest):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(command.split() + ["--cache-dir", str(cache_dir)])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# the cache file a cold `table` writes: its name, mode and bytes
CACHE_FILES = (
    ("A", "3", "A3z0.v1.json", "4cc25ccdf68027338d0f54ef97020c96aefeeba65b36d132123c4c20aa36e793"),
    ("G", "2", "G2z0.v1.json", "21de42eee75f8fcf11163d0ac2ff235f6889fb1c803b9f9f1fc48f7b74e483e8"),
    # no labels and repeated degrees; F4 is the roster's largest file
    ("B", "3", "B3z0.v1.json", "991bdd8931542888b837bc42e0386eee8cdda6aec6fcfbbe797e717dbe62fb98"),
    ("D", "4", "D4z0.v1.json", "85fed89c5642a5bba2ece8de52dab1377fccd2e36faf9bc13257aca539b5cd30"),
    ("F", "4", "F4z0.v1.json", "40a6777c11a53f81316fb6fe6afc9250ed8938519a51db7299bfe3c6509cd29a"),
    # the rest of the roster, then three types beyond it
    ("A", "1", "A1z0.v1.json", "4ed11946b2fd4ba045cfc618f92f6f43c90546bba562bfb8b378e43f298e7e19"),
    ("A", "2", "A2z0.v1.json", "22f7cf9e6a72a6e0d12beaabb809636e5da11163147d4082ec038e5143a751fd"),
    ("A", "4", "A4z0.v1.json", "0b45a2458310b9cd33ed28ea8f81136ec019380aa459ca1a0e455c06d2a43ca4"),
    ("A", "5", "A5z0.v1.json", "1626c9bcba592264afe6e452811ed4adf397f6550d0a07c60209acec97f2e29d"),
    ("B", "2", "B2z0.v1.json", "b7856c12a5c621a51a421d8cbf643536c9b8cb9297db461bf3c5e7203c214e4e"),
    ("B", "4", "B4z0.v1.json", "ac6f633015b73ffa175768ed07cb519924d73d4a04c087119f7f798e88851841"),
    ("C", "3", "C3z0.v1.json", "3c3d40629318d30953b6745ac9ac07428225054d0fe31f58d782e00e76c6e833"),
    ("A", "6", "A6z0.v1.json", "abf5d8507748ffc5ce3ee0d257d573c23aa748422bac26abc4a1d452015c06f2"),
    ("D", "5", "D5z0.v1.json", "5cd81d2ca7f81c6bdfe8b0c0a7a6533b54840b5791390b965b289416e2830428"),
    ("B", "5", "B5z0.v1.json", "91766e5f51c8686e088d481546aa00cde5133956d26af70171d76f7f5949b946"),
)


@pytest.mark.parametrize("type_label, rank, name, digest", CACHE_FILES,
                         ids=[name for *_, name, _ in CACHE_FILES])
def test_cache_file_digest(tmp_path, type_label, rank, name, digest):
    with redirect_stdout(io.StringIO()):
        assert main(["table", type_label, rank, "--cache-dir", str(tmp_path)]) == 0
    [path] = tmp_path.iterdir()
    assert path.name == name
    assert path.stat().st_mode & 0o777 == 0o600
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# refused command lines: exit code and the whole of stderr, with nothing on stdout and no cache file
ERRORS = (
    ("table E 6", 2, "error: unsupported type E6; accepted: A(n>=1), B(n>=2), C(n>=3), D(n>=4), G(2), F(4)\n"),
    ("table A 99", 3, f"error: A99 has order {math.factorial(100)}, more than the limit of 2000000\n"),
    ("table A 200", 3, "error: A200 has 40200 roots, more than the limit of 10000\n"),
    ("dl A 0", 2, "error: rank must be a positive integer, got 0\n"),
    ("verify A x", 2, "error: rank must be an integer, got 'x'\n"),
    ("verify A", 2, "error: verify expects 'TYPE RANK' or 'all'\n"),
    ("verify all extra", 2, "error: verify all takes no further arguments\n"),
    ("table X 2", 2, "error: unsupported type X2; accepted: A(n>=1), B(n>=2), C(n>=3), D(n>=4), G(2), F(4)\n"),
    ("table A 3 --max-order 1", 2, "error: max_group_order must be >= 2, got 1\n"),
    ("table A 7 --max-order 100", 3, "error: A7 has order 40320, more than the limit of 100\n"),
    ("table A 3 --max-order 23", 3, "error: A3 has order 24, more than the limit of 23\n"),
)


@pytest.mark.parametrize("command, code, stderr", ERRORS, ids=[command for command, *_ in ERRORS])
def test_error_path(tmp_path, command, code, stderr):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(command.split() + ["--cache-dir", str(tmp_path)]) == code
    assert (out.getvalue(), err.getvalue()) == ("", stderr)
    assert list(tmp_path.iterdir()) == []


# help text at a fixed width: `weyl-dl --help` and the help of each command
HELP = (
    ("--help", "81cbb721b959f5b1e3f533684689666d0b12d21e5108baa23c5b2819582a8f02"),
    ("table --help", "87aa21b09ae61076dd165e5ea4b34f427bbeda5dab318cce2293a843d31f25cf"),
    ("dl --help", "f07c57f8dba3ec47e5f48784abece4c3851830b41b337e178f82a4c6daa0d868"),
    ("verify --help", "f40cba591b9de742b793659a1d7ce5f773091933d700ba917fad2920e4d1e638"),
)


@pytest.mark.parametrize("command, digest", HELP, ids=[command for command, _ in HELP])
def test_help_digest(monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as exit_info:
        main(command.split())
    assert exit_info.value.code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
