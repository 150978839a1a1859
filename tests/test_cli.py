import pytest

from streamdet.cli import _build_config, build_parser


@pytest.mark.parametrize("flags, resize", [(["--resize", "0"], None),
                                           (["--resize", "64"], 64),
                                           ([], 500)])
def test_resize_flag(flags, resize):
    args = build_parser().parse_args(["detect", "frames", "--out", "d.jsonl"]
                                     + flags)
    assert _build_config(args).resize == resize
