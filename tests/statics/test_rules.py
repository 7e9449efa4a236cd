"""Per-rule fixtures: one snippet that triggers, one near-miss that must not.

Every rule is exercised through :func:`repro.statics.lint_source` on a
minimal inline module, so these tests pin down the exact *shape* each
rule flags — and, just as importantly, the neighbouring shapes it must
leave alone (seeded generators, typed excepts, Literal-style strings).
"""

from pathlib import Path

import pytest

from repro.statics import lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]


def codes(source, path="src/repro/core/example.py", rules=None):
    """Rule codes of active findings for an inline module."""
    from repro.statics import rules_by_code

    selected = rules_by_code(rules) if rules else None
    active, _ = lint_source(source, path, selected)
    return [finding.rule for finding in active]


class TestDET01WallClock:
    def test_time_time_triggers(self):
        source = "import time\nstamp = time.time()\n"
        assert codes(source, rules=["DET01"]) == ["DET01"]

    def test_from_import_alias_triggers(self):
        source = "from time import monotonic as mono\nt = mono()\n"
        assert codes(source, rules=["DET01"]) == ["DET01"]

    def test_datetime_now_triggers(self):
        source = "from datetime import datetime\nd = datetime.now()\n"
        assert codes(source, rules=["DET01"]) == ["DET01"]

    def test_perf_counter_is_a_near_miss(self):
        # Benchmark timing is measurement, not simulation logic.
        source = "import time\nelapsed = time.perf_counter()\n"
        assert codes(source, rules=["DET01"]) == []

    def test_injected_clock_modules_are_exempt(self):
        source = "import time\nclock = time.time()\n"
        assert codes(source, path="src/repro/telemetry/base.py") == []

    def test_unrelated_attribute_chain_is_a_near_miss(self):
        source = "sim = object()\nnow = sim.time()\n"
        assert codes(source, rules=["DET01"]) == []


class TestDET02UnseededRandomness:
    def test_module_level_random_triggers(self):
        source = "import random\nx = random.random()\n"
        assert codes(source, rules=["DET02"]) == ["DET02"]

    def test_unseeded_random_instance_triggers(self):
        source = "import random\nrng = random.Random()\n"
        assert codes(source, rules=["DET02"]) == ["DET02"]

    def test_seeded_random_instance_is_a_near_miss(self):
        source = "import random\nrng = random.Random(7)\n"
        assert codes(source, rules=["DET02"]) == []

    def test_unseeded_default_rng_triggers(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(source, rules=["DET02"]) == ["DET02"]

    def test_seeded_default_rng_is_a_near_miss(self):
        source = "import numpy as np\nrng = np.random.default_rng(2003)\n"
        assert codes(source, rules=["DET02"]) == []

    def test_seed_keyword_is_a_near_miss(self):
        source = "import numpy as np\nrng = np.random.default_rng(seed=3)\n"
        assert codes(source, rules=["DET02"]) == []

    def test_legacy_numpy_global_triggers(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(source, rules=["DET02"]) == ["DET02"]

    def test_method_on_local_generator_is_a_near_miss(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(1)\n"
            "x = rng.random(4)\n"
        )
        assert codes(source, rules=["DET02"]) == []


class TestDET03UnorderedIteration:
    def test_for_over_set_call_triggers(self):
        source = "for item in set([3, 1, 2]):\n    print(item)\n"
        assert codes(source, rules=["DET03"]) == ["DET03"]

    def test_for_over_set_literal_triggers(self):
        source = "for item in {3, 1, 2}:\n    print(item)\n"
        assert codes(source, rules=["DET03"]) == ["DET03"]

    def test_comprehension_over_keys_view_triggers(self):
        source = "d = {}\nout = [k for k in d.keys()]\n"
        assert codes(source, rules=["DET03"]) == ["DET03"]

    def test_list_of_set_difference_triggers(self):
        source = "b = {2}\nout = list(set([1, 2]) - b)\n"
        assert codes(source, rules=["DET03"]) == ["DET03"]

    def test_arithmetic_on_names_is_a_near_miss(self):
        # a - b over plain names could be numbers; only a recognizable
        # set expression on either side makes the difference flaggable.
        source = "a = 1\nb = 2\nout = list(range(a - b))\n"
        assert codes(source, rules=["DET03"]) == []

    def test_join_over_set_triggers(self):
        source = "names = {'b', 'a'}\ntext = ', '.join(names | set())\n"
        assert codes(source, rules=["DET03"]) == ["DET03"]

    def test_sorted_wrap_is_a_near_miss(self):
        source = "for item in sorted(set([3, 1, 2])):\n    print(item)\n"
        assert codes(source, rules=["DET03"]) == []

    def test_dict_iteration_is_a_near_miss(self):
        # Plain dict iteration is insertion-ordered: allowed.
        source = "d = {}\nfor key in d:\n    print(key)\n"
        assert codes(source, rules=["DET03"]) == []

    def test_ordered_marker_suppresses(self):
        source = (
            "singleton = {0}\n"
            "for item in singleton:  # repro: ordered\n"
            "    print(item)\n"
        )
        assert codes(source, rules=["DET03"]) == []

    def test_membership_test_is_a_near_miss(self):
        source = "flag = 3 in {1, 2, 3}\n"
        assert codes(source, rules=["DET03"]) == []


class TestASSERT01AssertValidation:
    def test_assert_in_library_code_triggers(self):
        source = "def f(x):\n    assert x > 0\n    return x\n"
        assert codes(source, rules=["ASSERT01"]) == ["ASSERT01"]

    def test_tests_are_exempt(self):
        source = "def test_f():\n    assert 1 + 1 == 2\n"
        assert codes(source, path="tests/test_math.py") == []
        assert codes(source, path="tests/faults/test_x.py") == []

    def test_raise_is_the_near_miss(self):
        source = (
            "def f(x):\n"
            "    if x <= 0:\n"
            "        raise ValueError(f'x must be positive, got {x}')\n"
            "    return x\n"
        )
        assert codes(source, rules=["ASSERT01"]) == []


class TestANN01QuotedAnnotation:
    def test_quoted_return_annotation_triggers(self):
        source = "class A:\n    def clone(self) -> \"A\":\n        return self\n"
        assert codes(source, rules=["ANN01"]) == ["ANN01"]

    def test_quoted_parameter_annotation_triggers(self):
        source = "def f(other: \"Widget\") -> None:\n    pass\n"
        assert codes(source, rules=["ANN01"]) == ["ANN01"]

    def test_quoted_variable_annotation_triggers(self):
        source = "size: \"int\" = 3\n"
        assert codes(source, rules=["ANN01"]) == ["ANN01"]

    def test_future_import_style_is_the_near_miss(self):
        source = (
            "from __future__ import annotations\n"
            "class A:\n"
            "    def clone(self) -> A:\n"
            "        return self\n"
        )
        assert codes(source, rules=["ANN01"]) == []

    def test_string_inside_subscript_is_not_flagged(self):
        # Literal['a'] keeps its strings: only whole-quoted annotations
        # are the hazard this rule polices.
        source = (
            "from typing import Literal\n"
            "def f(mode: Literal['r', 'w']) -> None:\n"
            "    pass\n"
        )
        assert codes(source, rules=["ANN01"]) == []

    def test_applies_to_tests_too(self):
        source = "def helper(x: \"int\") -> None:\n    pass\n"
        assert codes(source, path="tests/test_helper.py") == ["ANN01"]


class TestERR01EmptyErrorMessage:
    def test_argless_call_triggers(self):
        source = "raise ValueError()\n"
        assert codes(source, rules=["ERR01"]) == ["ERR01"]

    def test_bare_class_raise_triggers(self):
        source = "raise RuntimeError\n"
        assert codes(source, rules=["ERR01"]) == ["ERR01"]

    def test_empty_string_triggers(self):
        source = "raise ValueError('')\n"
        assert codes(source, rules=["ERR01"]) == ["ERR01"]

    def test_whitespace_message_triggers(self):
        source = "raise RuntimeError('   ')\n"
        assert codes(source, rules=["ERR01"]) == ["ERR01"]

    def test_real_message_is_the_near_miss(self):
        source = "raise ValueError('threshold must be in [0, 1]')\n"
        assert codes(source, rules=["ERR01"]) == []

    def test_fstring_message_is_a_near_miss(self):
        source = "x = 3\nraise ValueError(f'bad x: {x}')\n"
        assert codes(source, rules=["ERR01"]) == []

    def test_other_exception_types_are_not_policed(self):
        source = "raise KeyError()\n"
        assert codes(source, rules=["ERR01"]) == []


class TestIO01NonAtomicWrite:
    DURABLE = "src/repro/durability/store.py"

    def test_raw_open_write_triggers(self):
        source = "with open('x.json', 'w') as f:\n    f.write('{}')\n"
        assert codes(source, path=self.DURABLE) == ["IO01"]

    def test_path_write_text_triggers(self):
        source = (
            "from pathlib import Path\n"
            "Path('x.json').write_text('{}')\n"
        )
        assert codes(source, path=self.DURABLE) == ["IO01"]

    def test_fdopen_write_triggers(self):
        source = "import os\nh = os.fdopen(3, 'wb')\n"
        assert codes(source, path=self.DURABLE) == ["IO01"]

    def test_read_open_is_a_near_miss(self):
        source = "with open('x.json') as f:\n    data = f.read()\n"
        assert codes(source, path=self.DURABLE) == []

    def test_read_mode_path_open_is_a_near_miss(self):
        source = (
            "from pathlib import Path\n"
            "with Path('x').open('rb') as f:\n"
            "    data = f.read()\n"
        )
        assert codes(source, path=self.DURABLE) == []

    @pytest.mark.parametrize(
        "flags",
        [
            "os.O_RDWR | os.O_APPEND",
            "os.O_WRONLY",
            "os.O_RDONLY | os.O_CREAT",
            "os.O_TRUNC | os.O_CLOEXEC",
            "flags",  # computed elsewhere: assume the worst
            "os.O_RDONLY | extra",
            "0",
        ],
    )
    def test_os_open_with_write_flags_triggers(self, flags):
        source = f"import os\nfd = os.open(path, {flags})\n"
        findings = lint_source(source, self.DURABLE)[0]
        assert [f.rule for f in findings] == ["IO01"]
        assert "os.open()" in findings[0].message

    def test_os_open_is_resolved_by_name(self):
        source = (
            "from os import O_APPEND, open as raw_open\n"
            "fd = raw_open(path, flags=O_APPEND)\n"
        )
        assert codes(source, path=self.DURABLE) == ["IO01"]

    @pytest.mark.parametrize(
        "flags", ["os.O_RDONLY", "os.O_RDONLY | os.O_CLOEXEC"]
    )
    def test_os_open_read_only_is_a_near_miss(self, flags):
        # A dynamic first argument is not what makes an open a write.
        source = (
            f"import os\nfd = os.open(path, {flags})\n"
            "data = os.pread(fd, 17, 0)\nos.close(fd)\n"
        )
        assert codes(source, path=self.DURABLE) == []

    def test_os_write_triggers(self):
        source = "import os\nos.write(fd, data)\n"
        assert codes(source, path=self.DURABLE) == ["IO01"]
        assert codes(source, path="src/repro/io.py") == []

    def test_the_wal_marks_its_one_raw_write(self):
        wal = REPO_ROOT / "src" / "repro" / "durability" / "wal.py"
        text = wal.read_text()
        assert text.count("# repro: noqa IO01") == 1
        active, suppressed = lint_source(text, str(wal))
        assert active == []
        assert [f.message for f in suppressed] == [
            "raw os.write() for writing durable state"
        ]

    def test_atomic_helper_is_the_sanctioned_route(self):
        source = (
            "from repro.io import atomic_write_text\n"
            "atomic_write_text('x.json', '{}')\n"
        )
        assert codes(source, path=self.DURABLE) == []

    def test_other_packages_are_out_of_scope(self):
        source = "with open('plot.csv', 'w') as f:\n    f.write('a,b')\n"
        assert codes(source, path="src/repro/experiments/export.py") == []

    @pytest.mark.parametrize(
        "subdir", ["durability", "sessions", "replication"]
    )
    def test_all_durable_subtrees_are_in_scope(self, subdir):
        source = "open('x', 'a').write('1')\n"
        path = f"src/repro/{subdir}/thing.py"
        assert "IO01" in codes(source, path=path)


class TestEXC01SwallowedException:
    def test_bare_except_triggers(self):
        source = (
            "try:\n    risky()\n"
            "except:\n    pass\n"
        )
        assert codes(source, rules=["EXC01"]) == ["EXC01"]

    def test_swallowed_broad_except_triggers(self):
        source = (
            "try:\n    recover()\n"
            "except Exception:\n    pass\n"
        )
        assert codes(source, rules=["EXC01"]) == ["EXC01"]

    def test_typed_narrow_swallow_is_a_near_miss(self):
        # The fsync_dir idiom: catching the one expected error is fine.
        source = (
            "import os\n"
            "try:\n    os.fsync(3)\n"
            "except OSError:\n    pass\n"
        )
        assert codes(source, rules=["EXC01"]) == []

    def test_broad_except_that_acts_is_a_near_miss(self):
        source = (
            "try:\n    takeover()\n"
            "except Exception:\n"
            "    log('takeover failed')\n"
            "    raise\n"
        )
        assert codes(source, rules=["EXC01"]) == []


class TestRuleMetadata:
    def test_every_rule_documents_itself(self):
        from repro.statics import ALL_RULES

        seen = set()
        for cls in ALL_RULES:
            code, invariant, rationale, hint = cls.describe()
            assert code and invariant and rationale and hint
            assert code not in seen
            seen.add(code)
        assert len(seen) == 8

    def test_unknown_rule_code_is_rejected_loudly(self):
        from repro.statics import rules_by_code

        with pytest.raises(ValueError, match="unknown lint rule"):
            rules_by_code(["DET99"])

    def test_rule_selection_is_case_insensitive(self):
        from repro.statics import rules_by_code

        (rule,) = rules_by_code(["det01"])
        assert rule.code == "DET01"
