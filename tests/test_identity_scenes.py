"""Identity-error scenes: every metric of both trackers, pinned exactly.

No other tier-1 scene makes the tracker fail at association, so a change
to matching, gating or prototype updates would pass silently.  These
reports turn any such change into a named difference.  Each line is
set, seed, tracker and the scene's format_report_machine text, with
IoU threshold 0.5; the appearance tracker runs at TrackerParams()
defaults and the baseline is baseline_iou_tracker at IoU 0.3.
"""

import pytest

from frond.metrics import evaluate, format_report_machine
from frond.simulator import baseline_iou_tracker
from frond.tracker import TrackerParams, run_sequence, tracked_boxes
from identity_scenes import SEEDS, SETS, scene

EXPECTED = """
similar 0 appearance hota=0.6566931046505823 deta=0.710691823899371 assa=0.6067972350230414 mota=0.42741935483870963 idf1=0.5110294117647058 tp=226 fp=70 fn=22 idsw=50 idtp=139 idfp=157 idfn=109
similar 0 baseline hota=0.604135827731592 deta=0.710691823899371 assa=0.5135560675883256 mota=0.5443548387096775 idf1=0.4227941176470588 tp=226 fp=70 fn=22 idsw=21 idtp=115 idfp=181 idfn=133
similar 1 appearance hota=0.6098097437391976 deta=0.662613981762918 assa=0.5612135176651306 mota=0.29032258064516125 idf1=0.4606946983546618 tp=218 fp=81 fn=30 idsw=65 idtp=126 idfp=173 idfn=122
similar 1 baseline hota=0.5648380442723644 deta=0.662613981762918 assa=0.481490015360983 mota=0.4798387096774194 idf1=0.40585009140767825 tp=218 fp=81 fn=30 idsw=18 idtp=111 idfp=188 idfn=137
similar 2 appearance hota=0.7691415426633208 deta=0.7612903225806451 assa=0.777073732718894 mota=0.47580645161290325 idf1=0.6776556776556777 tp=236 fp=62 fn=12 idsw=56 idtp=185 idfp=113 idfn=63
similar 2 baseline hota=0.6139957115962454 deta=0.7612903225806451 assa=0.495199692780338 mota=0.6370967741935484 idf1=0.43223443223443225 tp=236 fp=62 fn=12 idsw=16 idtp=118 idfp=180 idfn=130
similar 3 appearance hota=0.6880058383913533 deta=0.6987577639751553 assa=0.6774193548387096 mota=0.375 idf1=0.5521023765996343 tp=225 fp=74 fn=23 idsw=58 idtp=151 idfp=148 idfn=97
similar 3 baseline hota=0.558304508495524 deta=0.6987577639751553 assa=0.44608294930875575 mota=0.5161290322580645 idf1=0.3692870201096892 tp=225 fp=74 fn=23 idsw=23 idtp=101 idfp=198 idfn=147
similar 4 appearance hota=0.6108619425743833 deta=0.6586826347305389 assa=0.5665130568356375 mota=0.3790322580645161 idf1=0.5090252707581228 tp=220 fp=86 fn=28 idsw=40 idtp=141 idfp=165 idfn=107
similar 4 baseline hota=0.6011783579037941 deta=0.6586826347305389 assa=0.5486943164362519 mota=0.4516129032258065 idf1=0.4296028880866426 tp=220 fp=86 fn=28 idsw=22 idtp=119 idfp=187 idfn=129
similar 5 appearance hota=0.8073724023178436 deta=0.6776119402985075 assa=0.9619815668202766 mota=0.5120967741935484 idf1=0.7793594306049823 tp=227 fp=87 fn=21 idsw=13 idtp=219 idfp=95 idfn=29
similar 5 baseline hota=0.5613608313627558 deta=0.6776119402985075 assa=0.46505376344086025 mota=0.4798387096774194 idf1=0.3736654804270463 tp=227 fp=87 fn=21 idsw=21 idtp=105 idfp=209 idfn=143
similar 6 appearance hota=0.7531610365660297 deta=0.694006309148265 assa=0.8173579109062981 mota=0.44354838709677424 idf1=0.6741154562383612 tp=220 fp=69 fn=28 idsw=41 idtp=181 idfp=108 idfn=67
similar 6 baseline hota=0.5498743599439545 deta=0.694006309148265 assa=0.43567588325652845 mota=0.5161290322580645 idf1=0.3687150837988827 tp=220 fp=69 fn=28 idsw=23 idtp=99 idfp=190 idfn=149
similar 7 appearance hota=0.7557718771989571 deta=0.7255520504731862 assa=0.7872503840245776 mota=0.47580645161290325 idf1=0.6617915904936015 tp=230 fp=69 fn=18 idsw=43 idtp=181 idfp=118 idfn=67
similar 7 baseline hota=0.6155782279926919 deta=0.7255520504731862 assa=0.522273425499232 mota=0.5725806451612903 idf1=0.43875685557586835 tp=230 fp=69 fn=18 idsw=19 idtp=120 idfp=179 idfn=128
similar 8 appearance hota=0.7556781948575564 deta=0.7435064935064936 assa=0.7680491551459295 mota=0.4193548387096774 idf1=0.659217877094972 tp=229 fp=60 fn=19 idsw=65 idtp=177 idfp=112 idfn=71
similar 8 baseline hota=0.6274859789822391 deta=0.7435064935064936 assa=0.5295698924731183 mota=0.6169354838709677 idf1=0.44692737430167595 tp=229 fp=60 fn=19 idsw=16 idtp=120 idfp=169 idfn=128
similar 9 appearance hota=0.7275987289944872 deta=0.6959247648902821 assa=0.7607142857142858 mota=0.3629032258064516 idf1=0.6173752310536045 tp=222 fp=71 fn=26 idsw=61 idtp=167 idfp=126 idfn=81
similar 9 baseline hota=0.6108279755948685 deta=0.6959247648902821 assa=0.536136712749616 mota=0.5403225806451613 idf1=0.4510166358595194 tp=222 fp=71 fn=26 idsw=17 idtp=122 idfp=171 idfn=126
bench 0 appearance hota=0.8430253993204303 deta=0.710691823899371 assa=1.0 mota=0.6290322580645161 idf1=0.8308823529411765 tp=226 fp=70 fn=22 idsw=0 idtp=226 idfp=70 idfn=22
bench 0 baseline hota=0.604135827731592 deta=0.710691823899371 assa=0.5135560675883256 mota=0.5443548387096775 idf1=0.4227941176470588 tp=226 fp=70 fn=22 idsw=21 idtp=115 idfp=181 idfn=133
bench 1 appearance hota=0.8140110452339808 deta=0.662613981762918 assa=1.0 mota=0.5524193548387097 idf1=0.7970749542961609 tp=218 fp=81 fn=30 idsw=0 idtp=218 idfp=81 idfn=30
bench 1 baseline hota=0.5648380442723644 deta=0.662613981762918 assa=0.481490015360983 mota=0.4798387096774194 idf1=0.40585009140767825 tp=218 fp=81 fn=30 idsw=18 idtp=111 idfp=188 idfn=137
bench 2 appearance hota=0.8725195256156993 deta=0.7612903225806451 assa=1.0 mota=0.7016129032258065 idf1=0.8644688644688645 tp=236 fp=62 fn=12 idsw=0 idtp=236 idfp=62 idfn=12
bench 2 baseline hota=0.6139957115962454 deta=0.7612903225806451 assa=0.495199692780338 mota=0.6370967741935484 idf1=0.43223443223443225 tp=236 fp=62 fn=12 idsw=16 idtp=118 idfp=180 idfn=130
bench 3 appearance hota=0.8359173188630292 deta=0.6987577639751553 assa=1.0 mota=0.6088709677419355 idf1=0.8226691042047533 tp=225 fp=74 fn=23 idsw=0 idtp=225 idfp=74 idfn=23
bench 3 baseline hota=0.558304508495524 deta=0.6987577639751553 assa=0.44608294930875575 mota=0.5161290322580645 idf1=0.3692870201096892 tp=225 fp=74 fn=23 idsw=23 idtp=101 idfp=198 idfn=147
bench 4 appearance hota=0.8115926532014314 deta=0.6586826347305389 assa=1.0 mota=0.5403225806451613 idf1=0.7942238267148014 tp=220 fp=86 fn=28 idsw=0 idtp=220 idfp=86 idfn=28
bench 4 baseline hota=0.6011783579037941 deta=0.6586826347305389 assa=0.5486943164362519 mota=0.4516129032258065 idf1=0.4296028880866426 tp=220 fp=86 fn=28 idsw=22 idtp=119 idfp=187 idfn=129
bench 5 appearance hota=0.8231718777378801 deta=0.6776119402985075 assa=1.0 mota=0.564516129032258 idf1=0.8078291814946619 tp=227 fp=87 fn=21 idsw=0 idtp=227 idfp=87 idfn=21
bench 5 baseline hota=0.5613608313627558 deta=0.6776119402985075 assa=0.46505376344086025 mota=0.4798387096774194 idf1=0.3736654804270463 tp=227 fp=87 fn=21 idsw=21 idtp=105 idfp=209 idfn=143
bench 6 appearance hota=0.8330704106786323 deta=0.694006309148265 assa=1.0 mota=0.6088709677419355 idf1=0.819366852886406 tp=220 fp=69 fn=28 idsw=0 idtp=220 idfp=69 idfn=28
bench 6 baseline hota=0.5498743599439545 deta=0.694006309148265 assa=0.43567588325652845 mota=0.5161290322580645 idf1=0.3687150837988827 tp=220 fp=69 fn=28 idsw=23 idtp=99 idfp=190 idfn=149
bench 7 appearance hota=0.8517934318091366 deta=0.7255520504731862 assa=1.0 mota=0.6491935483870968 idf1=0.8409506398537477 tp=230 fp=69 fn=18 idsw=0 idtp=230 idfp=69 idfn=18
bench 7 baseline hota=0.6155782279926919 deta=0.7255520504731862 assa=0.522273425499232 mota=0.5725806451612903 idf1=0.43875685557586835 tp=230 fp=69 fn=18 idsw=19 idtp=120 idfp=179 idfn=128
bench 8 appearance hota=0.8622682259636462 deta=0.7435064935064936 assa=1.0 mota=0.6814516129032258 idf1=0.8528864059590316 tp=229 fp=60 fn=19 idsw=0 idtp=229 idfp=60 idfn=19
bench 8 baseline hota=0.6274859789822391 deta=0.7435064935064936 assa=0.5295698924731183 mota=0.6169354838709677 idf1=0.44692737430167595 tp=229 fp=60 fn=19 idsw=16 idtp=120 idfp=169 idfn=128
bench 9 appearance hota=0.8342210527733535 deta=0.6959247648902821 assa=1.0 mota=0.6088709677419355 idf1=0.8207024029574861 tp=222 fp=71 fn=26 idsw=0 idtp=222 idfp=71 idfn=26
bench 9 baseline hota=0.6108279755948685 deta=0.6959247648902821 assa=0.536136712749616 mota=0.5403225806451613 idf1=0.4510166358595194 tp=222 fp=71 fn=26 idsw=17 idtp=122 idfp=171 idfn=126
"""
REPORTS = {
    (name, int(seed), tracker): report.replace(" ", "\n")
    for name, seed, tracker, report in (line.split(" ", 3) for line in EXPECTED.strip().splitlines())
}


def report(name: str, seed: int, tracker: str):
    gt, det, _ = scene(name, seed)
    if tracker == "appearance":
        results = run_sequence(det, TrackerParams())
    else:
        results = baseline_iou_tracker(det, 0.3)
    return evaluate(gt, tracked_boxes(results))


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tracker", ["appearance", "baseline"])
def test_report_is_pinned(name, seed, tracker):
    assert format_report_machine(report(name, seed, tracker)) == REPORTS[(name, seed, tracker)]


@pytest.mark.parametrize("seed", SEEDS)
def test_appearance_beats_the_motion_baseline_at_bench_noise(seed):
    assert report("bench", seed, "appearance").assa > report("bench", seed, "baseline").assa
