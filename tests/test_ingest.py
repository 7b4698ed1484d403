import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonwatch.ingest import (
    InvalidValue,
    MalformedLine,
    MissingGeometry,
    OutOfRange,
    ParseError,
    RunConfig,
    UnknownClass,
    UnknownKey,
    parse_config,
    parse_detection_log,
    parse_ground_truth,
    write_detection_log,
)
from dragonwatch.model import ClassLabel, FrameGeometry
from dragonwatch.tracks import reduce_per_frame

from helpers import timelines, write_ground_truth

HEADER = "!geometry 640 480 30 100"


class TestParseDetectionLog:
    def test_single_record(self):
        tl = parse_detection_log(f"{HEADER}\n0 0 0.5 0.5 0.2 0.2 0.9\n")
        assert tl.geometry == FrameGeometry(640, 480, 30.0)
        assert tl.frame_count == 100
        dragon = tl.detections_for(ClassLabel.BEARDED_DRAGON)
        assert len(dragon) == 1
        assert dragon.frame == [0]
        assert reduce_per_frame(tl)[0].interpolated == [False]

    def test_empty_data_section(self):
        tl = parse_detection_log(HEADER)
        assert tl.frame_count == 100
        assert tl.detection_count == 0

    def test_comments_and_blanks_skipped(self):
        text = f"# comment\n\n{HEADER}\n# another\n0 0 0.5 0.5 0.2 0.2 0.9\n\n"
        assert parse_detection_log(text).detection_count == 1

    def test_scientific_notation(self):
        tl = parse_detection_log(f"{HEADER}\n0 0 5e-1 0.5 2.0e-1 0.2 9E-1\n")
        dragon = tl.detections_for(ClassLabel.BEARDED_DRAGON)
        assert dragon.cx == [0.5] and dragon.w == [0.2]

    def test_unknown_class(self):
        with pytest.raises(UnknownClass) as err:
            parse_detection_log(f"{HEADER}\n5 7 0.5 0.5 0.1 0.1 0.9\n")
        assert err.value.line_no == 2

    def test_missing_geometry(self):
        with pytest.raises(MissingGeometry) as err:
            parse_detection_log("0 0 0.5 0.5 0.1 0.1 0.9\n")
        assert err.value.line_no == 1

    def test_missing_geometry_empty_input(self):
        with pytest.raises(MissingGeometry):
            parse_detection_log("")

    @pytest.mark.parametrize(
        "line,exc",
        [
            ("0 0 0.5 0.5 0.1 0.1", MalformedLine),  # six fields
            ("0 0 0.5 0.5 0.1 0.1 0.9 7", MalformedLine),  # eight fields
            ("x 0 0.5 0.5 0.1 0.1 0.9", MalformedLine),  # frame not an int
            ("0 0 half 0.5 0.1 0.1 0.9", MalformedLine),  # cx not a number
            ("0 0 1.5 0.5 0.1 0.1 0.9", OutOfRange),  # cx outside [0,1]
            ("0 0 0.5 0.5 0.0 0.1 0.9", OutOfRange),  # zero width
            ("0 0 0.5 0.5 0.1 0.1 1.2", OutOfRange),  # confidence above 1
            ("0 0 0.5 0.5 0.1 0.1 nan", OutOfRange),  # nan confidence
            ("200 0 0.5 0.5 0.1 0.1 0.9", OutOfRange),  # frame beyond count
            ("-1 0 0.5 0.5 0.1 0.1 0.9", OutOfRange),  # negative frame
        ],
    )
    def test_bad_data_lines(self, line, exc):
        with pytest.raises(exc) as err:
            parse_detection_log(f"{HEADER}\n{line}\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "header",
        [
            "!shape 640 480 30 100",
            "!geometry 640 480 30",
            "!geometry 0 480 30 100",
            "!geometry 640 480 -5 100",
            "!geometry 640 480 30 -1",
            "!geometry 640 480 inf 100",
        ],
    )
    def test_bad_headers(self, header):
        with pytest.raises((MalformedLine, OutOfRange)):
            parse_detection_log(f"{header}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("!geometry 0 480 30 100", "line 1: width must be >= 1, got 0"),
            ("!geometry 640 480 inf 5", "line 1: fps must be finite and positive, got inf"),
            (f"{HEADER}\n0 0 1.5 0.5 0.1 0.1 x", "line 2: box centre outside unit square: (1.5, 0.5)"),
            (f"{HEADER}\n0 0 0.5 0.5 0.1 0.1 1.2", "line 2: confidence outside [0, 1]: 1.2"),
        ],
    )
    def test_range_errors_carry_the_owning_type_message(self, text, message):
        with pytest.raises(OutOfRange) as err:
            parse_detection_log(text)
        assert str(err.value) == message

    def test_duplicate_header_rejected(self):
        with pytest.raises(MalformedLine) as err:
            parse_detection_log(f"{HEADER}\n{HEADER}\n")
        assert err.value.line_no == 2

    def test_line_numbers_count_raw_lines(self):
        text = f"# one\n\n{HEADER}\n# four\nbogus line here\n"
        with pytest.raises(MalformedLine) as err:
            parse_detection_log(text)
        assert err.value.line_no == 5


# blank, whitespace-only, comment and indented-comment lines: skipped by every reader, and counted
SKIPPED = "\n \t \n# comment\n   # indented comment\n"


class TestLineRule:
    @pytest.mark.parametrize(
        "parse, text, exc, line_no",
        [
            (parse_detection_log, f"{SKIPPED}!geometry 640 480 30\n", MalformedLine, 5),
            (parse_detection_log, f"{SKIPPED}0 0 0.5 0.5 0.2 0.2 0.9\n", MissingGeometry, 5),
            (parse_detection_log, f"{SKIPPED}{HEADER}\n{SKIPPED}0 0 0.5 0.5 0.2 0.2 1.5\n", OutOfRange, 10),
            (parse_ground_truth, f"{SKIPPED}0 0.5 0.5 0.2\n", MalformedLine, 5),
            (parse_config, f"{SKIPPED}beta 0.3\n", MalformedLine, 5),
        ],
    )
    def test_fault_after_skipped_lines_has_its_own_line_number(self, parse, text, exc, line_no):
        with pytest.raises(exc) as err:
            parse(text)
        assert err.value.line_no == line_no

    def test_skipped_lines_change_no_parse(self):
        rows = "0 0 0.5 0.5 0.2 0.2 0.9\n2 2 0.1 0.1 0.1 0.1 0.5\n"
        plain = parse_detection_log(f"{HEADER}\n{rows}")
        assert parse_detection_log(f"{SKIPPED}{HEADER}\n{SKIPPED}{rows}{SKIPPED}") == plain
        assert parse_ground_truth(f"{SKIPPED}0 0.5 0.5 0.2 0.2\n{SKIPPED}") == parse_ground_truth(
            "0 0.5 0.5 0.2 0.2\n"
        )
        assert parse_config(f"{SKIPPED}beta = 0.3\n{SKIPPED}") == RunConfig(beta=0.3)


class TestRoundTrip:
    @given(tl=timelines())
    @settings(max_examples=60)
    def test_serialize_parse_is_identity(self, tl):
        assert parse_detection_log(write_detection_log(tl)) == tl

    def test_exact_floats_survive(self):
        text = f"{HEADER}\n3 1 0.123456789012345 1e-17 0.25 3e-2 0.9999999999999999\n"
        tl = parse_detection_log(text)
        assert parse_detection_log(write_detection_log(tl)) == tl


class TestParseGroundTruth:
    def test_single_line(self):
        tl = parse_ground_truth("0 0.5 0.5 0.2 0.2\n")
        dets = tl.detections_for(ClassLabel.BEARDED_DRAGON)
        assert len(dets) == 1
        assert dets.frame == [0]
        assert dets.conf == [1.0]

    def test_duplicates_kept(self):
        tl = parse_ground_truth("0 0.5 0.5 0.2 0.2\n0 0.5 0.5 0.2 0.2\n")
        assert len(tl.detections_for(ClassLabel.BEARDED_DRAGON)) == 2

    def test_out_of_range_coordinate(self):
        with pytest.raises(OutOfRange):
            parse_ground_truth("0 1.5 0.5 0.2 0.2\n")

    def test_frame_separators(self):
        tl = parse_ground_truth("!frame 4\n1 0.5 0.5 0.2 0.2\n!frame 7\n1 0.4 0.4 0.2 0.2\n")
        frames = tl.detections_for(ClassLabel.HEATING_LAMP).frame
        assert frames == [4, 7]
        assert tl.frame_count == 8

    def test_start_frame_for_per_frame_files(self):
        tl = parse_ground_truth("2 0.5 0.5 0.1 0.1\n", start_frame=12)
        assert tl.detections_for(ClassLabel.CRICKET).frame == [12]

    def test_negative_start_frame_is_rejected_before_reading(self):
        def source():
            raise AssertionError("the source was read")
            yield

        for given_source in ("0 0.5 0.5 0.1 0.1\n", source()):
            with pytest.raises(ValueError, match=r"^start_frame must be >= 0, got -1$") as caught:
                parse_ground_truth(given_source, start_frame=-1)
            assert not isinstance(caught.value, ParseError)

    def test_round_trip_via_writer(self):
        text = "!frame 1\n0 0.5 0.5 0.2 0.2\n!frame 3\n2 0.25 0.75 0.1 0.1\n"
        tl = parse_ground_truth(text)
        assert parse_ground_truth(write_ground_truth(tl)) == tl


class TestParseConfig:
    def test_empty_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_single_override(self):
        cfg = parse_config("theta_max = 30\n")
        assert cfg.theta_max == 30.0
        assert cfg.beta == RunConfig().beta

    def test_invalid_value(self):
        with pytest.raises(InvalidValue) as err:
            parse_config("beta = 1.5\n")
        assert err.value.line_no == 1

    def test_unknown_key(self):
        with pytest.raises(UnknownKey):
            parse_config("betamax = 0.5\n")

    def test_not_a_number(self):
        with pytest.raises(InvalidValue):
            parse_config("max_gap = many\n")

    def test_missing_equals(self):
        with pytest.raises(MalformedLine):
            parse_config("beta 0.5\n")

    def test_duplicate_key(self):
        with pytest.raises(MalformedLine):
            parse_config("beta = 0.5\nbeta = 0.4\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("height = 0", "line 2: height must be >= 1, got 0"),
            ("width = -3", "line 2: width must be >= 1, got -3"),
            ("fps = inf", "line 2: fps must be finite and positive, got inf"),
            ("theta_max = 95", "line 2: theta_max must be in (0, 90] degrees, got 95.0"),
            ("max_gap = -1", "line 2: max_gap must be >= 0, got -1"),
        ],
    )
    def test_range_error_names_only_the_given_value(self, line, message):
        with pytest.raises(InvalidValue) as err:
            parse_config(f"# c\n{line}\n")
        assert str(err.value) == message

    def test_geometry_requires_all_three(self):
        with pytest.raises(InvalidValue):
            parse_config("width = 640\nheight = 480\n")

    def test_geometry_override(self):
        cfg = parse_config("width = 1280\nheight = 720\nfps = 25\n")
        assert cfg.geometry == FrameGeometry(1280, 720, 25.0)

    def test_comments_ignored(self):
        cfg = parse_config("# settings\nbeta = 0.2\n")
        assert cfg.beta == 0.2


class TestNumberSyntax:
    """Numbers are plain ASCII; ``int``/``float`` alone would take these tokens."""

    @pytest.mark.parametrize(
        "parse, text, exc, line_no",
        [
            (parse_detection_log, "!geometry 6_40 480 3_0 1_00\n", MalformedLine, 1),
            (parse_detection_log, "!geometry ６４０ 480 30 100\n", MalformedLine, 1),
            (parse_detection_log, "!geometry 640 480 ٣٠ 100\n", MalformedLine, 1),
            (parse_detection_log, f"{HEADER}\n1_0 0 0.5 0.5 0.1 0.1 0.9\n", MalformedLine, 2),
            (parse_detection_log, f"{HEADER}\n# c\n0 0 0.5_0 0.5 0.1 0.1 0.9\n", MalformedLine, 3),
            (parse_detection_log, f"{HEADER}\n0 ２ 0.5 0.5 0.1 0.1 0.9\n", MalformedLine, 2),
            (parse_ground_truth, "!frame 1_0\n0 0.5 0.5 0.2 0.2\n", MalformedLine, 1),
            (parse_ground_truth, "0 0.5 0.5 0.2 0.2\n0 0.5_0 0.5 0.2 0.2\n", MalformedLine, 2),
            (parse_ground_truth, "!frame ٣\n", MalformedLine, 1),
            (parse_config, "max_gap = 1_5\n", InvalidValue, 1),
            (parse_config, "# c\nbeta = 0.3_3\n", InvalidValue, 2),
            (parse_config, "width = ６４０\nheight = 480\nfps = 30\n", InvalidValue, 1),
        ],
    )
    def test_separators_and_non_ascii_digits_rejected(self, parse, text, exc, line_no):
        with pytest.raises(exc) as err:
            parse(text)
        assert err.value.line_no == line_no


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": 1.5},
            {"theta_max": 0.0},
            {"theta_max": 95.0},
            {"gamma": 0.0},
            {"max_gap": -1},
            {"disappearance_window": 0},
            {"min_episode": 0},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


@st.composite
def junk_lines(draw):
    return draw(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                max_size=40,
            ),
            max_size=20,
        )
    )


class TestFuzz:
    @given(lines=junk_lines())
    @settings(max_examples=150)
    def test_detection_parser_never_crashes(self, lines):
        try:
            parse_detection_log(lines)
        except ParseError:
            pass

    @given(lines=junk_lines())
    @settings(max_examples=150)
    def test_detection_parser_with_header_never_crashes(self, lines):
        try:
            parse_detection_log([HEADER, *lines])
        except ParseError:
            pass

    @given(lines=junk_lines())
    @settings(max_examples=100)
    def test_ground_truth_parser_never_crashes(self, lines):
        try:
            parse_ground_truth(lines)
        except ParseError:
            pass

    @given(lines=junk_lines())
    @settings(max_examples=100)
    def test_config_parser_never_crashes(self, lines):
        try:
            parse_config(lines)
        except ParseError:
            pass


def fixed_log(rows: int) -> str:
    """A header and ``rows`` data lines: a dragon, a lamp and a cricket a frame, the cricket moving."""
    frames = (rows + 2) // 3
    lines = [f"!geometry 640 480 30 {frames}"]
    for i in range(rows):
        t, label = divmod(i, 3)
        lines.append(f"{t} {label} 0.{1000 + t % 9000:04d} 0.5 0.18 0.12 0.9")
    return "\n".join(lines) + "\n"


class TestParseMemory:
    ROWS = 50_000
    # The traced peak of this parse was 391.0 B a row (the finished Timeline
    # holds 196.8 B a row) on Python 3.11.7; the bound is 1.1 times that.
    PEAK_BYTES_PER_ROW = 430.0

    def test_peak_per_row_is_bounded(self):
        text = fixed_log(self.ROWS)
        parse_detection_log(fixed_log(30))  # first-call allocations are not per row
        tracemalloc.start()
        try:
            timeline = parse_detection_log(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert timeline.detection_count == self.ROWS
        assert peak / self.ROWS <= self.PEAK_BYTES_PER_ROW, f"{peak / self.ROWS:.1f} B a row"
