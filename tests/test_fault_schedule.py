"""The seeded fault schedule both planes inject from
(:class:`repro.resilience.FaultSchedule`): the harvest plane's
:class:`FaultPlan` and the query plane's :class:`ChaosPlan` must keep
drawing the same outcomes, in the same order, for the same seed, so
the E12 and E16 chaos seeds replay the same faults.

``RECORDED`` holds the first 200 outcomes per key, one character each
(``.`` ok, ``T`` transient, ``U`` truncate, ``C`` corrupt, ``S``
stall, ``E`` error, ``W`` slow), for two seeds × two keys of a rates
plan and a script plan of each type, as drawn by the separate
FaultPlan and ChaosPlan implementations the schedule replaced.
"""

import pytest

from repro.datahounds.faults import FaultPlan
from repro.federation.chaos import ChaosPlan

CODES = {"ok": ".", "transient": "T", "truncate": "U", "corrupt": "C",
         "stall": "S", "error": "E", "slow": "W"}

SEEDS = (7, 1234)


def fault_rates(seed):
    return FaultPlan(seed=seed).add_source(
        "*", transient_rate=0.2, truncate_rate=0.1, corrupt_rate=0.1,
        stall_rate=0.15)


def fault_script(seed):
    return (FaultPlan(seed=seed)
            .add_source("hlx_enzyme",
                        script=("stall", "ok", "corrupt", "transient"),
                        transient_rate=0.3, corrupt_rate=0.05)
            .add_source("hlx_embl", script=("truncate",) * 3,
                        stall_rate=0.25, truncate_rate=0.1))


def chaos_rates(seed):
    return ChaosPlan(seed=seed).add_backend(
        "*", error_rate=0.2, stall_rate=0.1, slow_rate=0.25)


def chaos_script(seed):
    return (ChaosPlan(seed=seed)
            .add_backend("s0", script=("slow", "ok", "error"),
                         error_rate=0.15, slow_rate=0.2)
            .add_backend("s1#r0", script=("stall",) * 2, stall_rate=0.3))


PLANS = {"fault-rates": (fault_rates, ("hlx_enzyme", "hlx_embl")),
         "fault-script": (fault_script, ("hlx_enzyme", "hlx_embl")),
         "chaos-rates": (chaos_rates, ("s0", "s1#r0")),
         "chaos-script": (chaos_script, ("s0", "s1#r0"))}

RECORDED = {
    ('fault-rates', 7): {
        'hlx_enzyme': (
            'CUT.T.CS.UT.....T.S..S.TTT.U.USS.SSSS.C.S..C.UT.S.'
            'SC.SSUS.U.UC..SCTT.U.TS..T..UC...CS.C.UUUUTUS.S.SU'
            '..S.C.TT..UCSU....S.U..TTT...CT........U..TU.S.U..'
            'U.S......CC....US..TTSCC.T..TTT...T..C..UCS....TT.'),
        'hlx_embl': (
            'T....CUC...S.U..TS.S.CTC.SS....U.STUTS.CU.US...S..'
            'C.C..SSSUCC..SU.C.U.S...T.TC.SC.S..TSTCCTTTTCT.SC.'
            'TU..CUSCTU..U..T.C..CUTSTST..CCSS...SS...TT.UTT..U'
            '.U...US.CC.C.T..TT.C.SSUCSTU....C.TTSTUT..USTT.T.T'),
    },
    ('fault-script', 7): {
        'hlx_enzyme': (
            'S.CT.TT.T....TT.....T......TTT.T.T........C......T'
            'T....C...T..T.TC....TT.T.T...T..T.........TTTTTT..'
            '...T......TT..TC.T......T..TTT....T........T..TT..'
            '.T..T.........C....T...TT....T..TTT...T.....TC....'),
        'hlx_embl': (
            'UUUU....SS......S..U.....U........S..SSU..SS.S....'
            '...S.......SS....S.S.S.....S.S........S.SS.USUUSU.'
            '.S.SS...S..US..S..U.....SS.U.U..............SS.SUS'
            '..S.S...S..S..S.S..US.....SS.US....S.US.USU..S.SS.'),
    },
    ('chaos-rates', 7): {
        's0': (
            'W...WWSE.SWEW..WW...EWW.E.E.E.E.W.E.E.WW.WWE..W.WE'
            '..SSS.EESEWSW.S.WW..W.W.SWWE.EW.W...W.WEWE.EE...W.'
            'WWWW.WW..W.EWS..W.SEWE....W.SW..W.EWW.WWEWWSS...WS'
            'E.....WE.EW.S.W....SE.EE....WE.E.WSS.W.WE.SW.WEW.W'),
        's1#r0': (
            '.WS.EWWE.E.E...W.WEES....WESSEWE..WS.W.W....WE.S.E'
            'W.W...E.W.WWE..WSW.WS..E.S.EESW.....WW.E.SW..WW.S.'
            'W.EEE..W.EE.EEW..E.WWW.EWE.EESES.W.SW....W.SS....W'
            '.W..SWEEEEWWSEEEWEWEE.EEEWW.W.WWEW..WW..SE.W.WES.E'),
    },
    ('chaos-script', 7): {
        's0': (
            'W.E.....WWE.W.E....W...E.W.E.E.E.W...W.E..W.W.E...'
            '.WE..WWW.EEWE.WW.W.........W..W.E.........E.W.WE..'
            '.........W..W.E.W....WW.E....W.W.....E....WE..WW..'
            '..WE......E.W..W......WE.WE.....E.E..WW.W..W.W...E'),
        's1#r0': (
            'SS..S.S..S.S.S......SSS.....SSSS.S...S.........S.S'
            '.S......S.....S...S...S..S.S.SSS.........S.S......'
            'S...SSS....SS.SS...S.....S.S.SSSSS...S.......SS...'
            '......S.SSSS..SSSS.S.SS.SSS.......S.......SS....SS'),
    },
    ('fault-rates', 1234): {
        'hlx_enzyme': (
            '.C.CS....CS.US..T.STS.T.CCSC..U.UT.....SUCCU..TSTC'
            'ST..U.TT..ST..TCCSSS..TTTCSTT..STT.CS..UU..TCCS...'
            'TSS.UU...T.SUU.ST.TSTT..S.T.TSTS.SCTC.S..TU...TTS.'
            '..U.S..U.T.U...C......T.USSUT.US.SSU.CT..TSCT.S.ST'),
        'hlx_embl': (
            'TC......UT.TT..ST.U...TCT..CSUTTT.S..US.U.CTT.TUS.'
            '..U.T.S.T..TTT..UTST..U..US.UCTT.S..UC.TTCCU.U.TSC'
            'T......USUT.TC.T.T.TUSSU.TSSU....STCSS.....TT.S.U.'
            '.....TT.S...ST..T.T.STUTSCCSSSTT...U..CCS.U.SCTT.S'),
    },
    ('fault-script', 1234): {
        'hlx_enzyme': (
            'S.CT...C.....C..T...T..T..T....C..T.TT......TCCT..'
            'T.T..T..T.TT...T..T.......TTTC.TT...TT.....TT..T.C'
            '....T...TT...T..TT..T.T.TT....T.T.T...CT.....TT...'
            'TT....T....T.T.T...C......T.T..TT.T....T..T..T..T.'),
        'hlx_embl': (
            'UUUS.......SU.SS...U.S...U.S....SSSS....S..S..SU.S'
            'S....S.S...U..USS..SS.S..S..S..SSUS....SS.US..S.S.'
            'U.SU......S.SS.US.U.U.SS..S.S..S.....SS.......SS..'
            '.S......US......S..S.S..SSS......US...S...S..S..SU'),
    },
    ('chaos-rates', 1234): {
        's0': (
            'WW.E...E..WW..SWWS.W..E...WESE..S..ESE.W.EE.EWEWE.'
            'SWESWWSEW...WE.S.WEW...W..EEEE....S..W.SS...E.E...'
            '...SWWE...ES.E...EWE..W.EE.WE.W.EW.W.EW..EE.EE.EEW'
            '..EW..S.EEE.W.W.WE.WEE..EWEE..E.E..ESS..S.SW.EEEWW'),
        's1#r0': (
            '.E...E..EW......WW.WEW.W.......EE.W..E.....W.ESEWS'
            '..S.WWWE..EWWS..W.W...WWW.W.S.SE.WE..E..S..W...EES'
            'EE.EWWWE.SE..W.W.W.WWEW..ES.EE.W.W.S..E.......SW..'
            'EW.ES.W.WWW..S.W....SEE.E.W.E..EESSWSWEE.E.W..E.WW'),
    },
    ('chaos-script', 1234): {
        's0': (
            'W.E...E...E......W..W....E....WWE..W..EWE...EW.E.E'
            '.E.W.WW..WE.....W.W..W.......WEEE....W....WW...W.E'
            '......W..W...EW.E...E.E....EE..E...E..W.EW..EE.EE.'
            'EE...E...W.EEE.W.W..E..EE..W.EW..E.E..EWW..W.W..EE'),
        's1#r0': (
            'SS.S...S..S...........S..........SS....S.......SSS'
            '.S..S....S..S..S..............S.SS..S..S..S......S'
            'SSSS.S...S.SS..........S...SS.SS.....S..S.......S.'
            '..S..SS........S......SSS.S...S..SSSS.S.SS.S....S.'),
    },
}


def draw(plan, key, count=200):
    return "".join(CODES[plan.next_outcome(key)] for __ in range(count))


@pytest.mark.parametrize("label", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_outcomes_match_recorded(label, seed):
    make, keys = PLANS[label]
    plan = make(seed)
    # draw the keys interleaved: each key's sequence is its own
    drawn = {key: "" for key in keys}
    for __ in range(200):
        for key in keys:
            drawn[key] += draw(plan, key, 1)
    assert drawn == RECORDED[label, seed]
    injected = {}
    for key, outcomes in drawn.items():
        for kind, code in CODES.items():
            if kind != "ok" and outcomes.count(code):
                injected[key, kind] = outcomes.count(code)
    assert plan.injected == injected
    plan.reset()
    assert plan.injected == {}
    assert {key: draw(plan, key) for key in keys} == RECORDED[label, seed]
