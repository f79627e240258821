"""Byte pins for text-mode `sl explain`: a SHA-256 of (exit code, stdout,
stderr) for every goal site of every corpus file, under the six
configurations of `test_cli_bytes`, run in process from `corpus/` with
relative paths. Any change to a rendered trace changes a digest.

The locator sits after the options and right before the files. argparse
takes `explain`'s locator and files from one run of positional arguments,
so `explain SITE --policy P FILES` is a usage error (exit 2), not a trace.

The table below was generated before the resolver's trace and derivation
trees were merged; a refactor that claims identical output must leave it
unchanged.

Run this file as a script to print the table:
    PYTHONPATH=src python tests/test_explain_text.py
"""

from __future__ import annotations

import os
import sys

from test_cli_bytes import CONFIGS, CORPUS, closure, digest, goal_sites, in_corpus


def invocations() -> list[list[str]]:
    out = []
    for name in sorted(p.name for p in CORPUS.glob("*.sl")):
        files = closure(name)
        for site in goal_sites(files, name):
            for config in CONFIGS:
                out.append(["explain"] + config + [site] + files)
    return out


def table() -> dict[str, str]:
    with in_corpus():
        return {" ".join(argv): digest(argv) for argv in invocations()}


EXPECTED: dict[str, str] = {
    'explain --policy use-site convert_pair.sl:17:9 convert_pair.sl': 'ac22c7813b2da4bb5a5a18746b589e799e2dda9037654945d44dd2db7db3f88a',
    'explain --policy def-site-strict convert_pair.sl:17:9 convert_pair.sl': 'ac22c7813b2da4bb5a5a18746b589e799e2dda9037654945d44dd2db7db3f88a',
    'explain --policy def-site-disjoint convert_pair.sl:17:9 convert_pair.sl': 'ac22c7813b2da4bb5a5a18746b589e799e2dda9037654945d44dd2db7db3f88a',
    'explain --policy scoped convert_pair.sl:17:9 convert_pair.sl': 'ac22c7813b2da4bb5a5a18746b589e799e2dda9037654945d44dd2db7db3f88a',
    'explain --policy use-site --prioritize-specific convert_pair.sl:17:9 convert_pair.sl': 'ac22c7813b2da4bb5a5a18746b589e799e2dda9037654945d44dd2db7db3f88a',
    'explain --policy use-site --incoherent-ok convert_pair.sl:17:9 convert_pair.sl': 'ac22c7813b2da4bb5a5a18746b589e799e2dda9037654945d44dd2db7db3f88a',
    'explain --policy use-site convert_pair.sl:18:9 convert_pair.sl': '6740881871a9f5b2b2e9524e3396a2afbd00486f84127dc4216a2c207668ba22',
    'explain --policy def-site-strict convert_pair.sl:18:9 convert_pair.sl': '6740881871a9f5b2b2e9524e3396a2afbd00486f84127dc4216a2c207668ba22',
    'explain --policy def-site-disjoint convert_pair.sl:18:9 convert_pair.sl': '6740881871a9f5b2b2e9524e3396a2afbd00486f84127dc4216a2c207668ba22',
    'explain --policy scoped convert_pair.sl:18:9 convert_pair.sl': '6740881871a9f5b2b2e9524e3396a2afbd00486f84127dc4216a2c207668ba22',
    'explain --policy use-site --prioritize-specific convert_pair.sl:18:9 convert_pair.sl': '6740881871a9f5b2b2e9524e3396a2afbd00486f84127dc4216a2c207668ba22',
    'explain --policy use-site --incoherent-ok convert_pair.sl:18:9 convert_pair.sl': '6740881871a9f5b2b2e9524e3396a2afbd00486f84127dc4216a2c207668ba22',
    'explain --policy use-site diamond_base.sl:9:20 diamond_base.sl': '24416fdde2b4f4f74b82929d0299ce4e328e34b9f0f716aa3eb581960666c5db',
    'explain --policy def-site-strict diamond_base.sl:9:20 diamond_base.sl': '24416fdde2b4f4f74b82929d0299ce4e328e34b9f0f716aa3eb581960666c5db',
    'explain --policy def-site-disjoint diamond_base.sl:9:20 diamond_base.sl': '24416fdde2b4f4f74b82929d0299ce4e328e34b9f0f716aa3eb581960666c5db',
    'explain --policy scoped diamond_base.sl:9:20 diamond_base.sl': '24416fdde2b4f4f74b82929d0299ce4e328e34b9f0f716aa3eb581960666c5db',
    'explain --policy use-site --prioritize-specific diamond_base.sl:9:20 diamond_base.sl': '24416fdde2b4f4f74b82929d0299ce4e328e34b9f0f716aa3eb581960666c5db',
    'explain --policy use-site --incoherent-ok diamond_base.sl:9:20 diamond_base.sl': '24416fdde2b4f4f74b82929d0299ce4e328e34b9f0f716aa3eb581960666c5db',
    'explain --policy use-site diamond_left.sl:10:39 diamond_base.sl diamond_left.sl diamond_point.sl': 'b1e65fe8978f8337b9f54159ca4bca227ca1f4d129b6da41b75a33df1ec3fd42',
    'explain --policy def-site-strict diamond_left.sl:10:39 diamond_base.sl diamond_left.sl diamond_point.sl': 'b1e65fe8978f8337b9f54159ca4bca227ca1f4d129b6da41b75a33df1ec3fd42',
    'explain --policy def-site-disjoint diamond_left.sl:10:39 diamond_base.sl diamond_left.sl diamond_point.sl': 'b1e65fe8978f8337b9f54159ca4bca227ca1f4d129b6da41b75a33df1ec3fd42',
    'explain --policy scoped diamond_left.sl:10:39 diamond_base.sl diamond_left.sl diamond_point.sl': 'b1e65fe8978f8337b9f54159ca4bca227ca1f4d129b6da41b75a33df1ec3fd42',
    'explain --policy use-site --prioritize-specific diamond_left.sl:10:39 diamond_base.sl diamond_left.sl diamond_point.sl': 'b1e65fe8978f8337b9f54159ca4bca227ca1f4d129b6da41b75a33df1ec3fd42',
    'explain --policy use-site --incoherent-ok diamond_left.sl:10:39 diamond_base.sl diamond_left.sl diamond_point.sl': 'b1e65fe8978f8337b9f54159ca4bca227ca1f4d129b6da41b75a33df1ec3fd42',
    'explain --policy use-site elements_equal.sl:8:9 elements_equal.sl eq_concepts.sl iter_lib.sl': 'c3ff4f74d19fd8ff74b25efbfe1a3dad92cc9d8222cc6a5cec48107093524178',
    'explain --policy def-site-strict elements_equal.sl:8:9 elements_equal.sl eq_concepts.sl iter_lib.sl': 'c3ff4f74d19fd8ff74b25efbfe1a3dad92cc9d8222cc6a5cec48107093524178',
    'explain --policy def-site-disjoint elements_equal.sl:8:9 elements_equal.sl eq_concepts.sl iter_lib.sl': 'c3ff4f74d19fd8ff74b25efbfe1a3dad92cc9d8222cc6a5cec48107093524178',
    'explain --policy scoped elements_equal.sl:8:9 elements_equal.sl eq_concepts.sl iter_lib.sl': 'c3ff4f74d19fd8ff74b25efbfe1a3dad92cc9d8222cc6a5cec48107093524178',
    'explain --policy use-site --prioritize-specific elements_equal.sl:8:9 elements_equal.sl eq_concepts.sl iter_lib.sl': 'c3ff4f74d19fd8ff74b25efbfe1a3dad92cc9d8222cc6a5cec48107093524178',
    'explain --policy use-site --incoherent-ok elements_equal.sl:8:9 elements_equal.sl eq_concepts.sl iter_lib.sl': 'c3ff4f74d19fd8ff74b25efbfe1a3dad92cc9d8222cc6a5cec48107093524178',
    'explain --policy use-site elements_equal.sl:9:22 elements_equal.sl eq_concepts.sl iter_lib.sl': '36b96dfe7765b57f4f89c158534627d719471055bd6aebb03b5d6fc128022be7',
    'explain --policy def-site-strict elements_equal.sl:9:22 elements_equal.sl eq_concepts.sl iter_lib.sl': '36b96dfe7765b57f4f89c158534627d719471055bd6aebb03b5d6fc128022be7',
    'explain --policy def-site-disjoint elements_equal.sl:9:22 elements_equal.sl eq_concepts.sl iter_lib.sl': '36b96dfe7765b57f4f89c158534627d719471055bd6aebb03b5d6fc128022be7',
    'explain --policy scoped elements_equal.sl:9:22 elements_equal.sl eq_concepts.sl iter_lib.sl': '36b96dfe7765b57f4f89c158534627d719471055bd6aebb03b5d6fc128022be7',
    'explain --policy use-site --prioritize-specific elements_equal.sl:9:22 elements_equal.sl eq_concepts.sl iter_lib.sl': '36b96dfe7765b57f4f89c158534627d719471055bd6aebb03b5d6fc128022be7',
    'explain --policy use-site --incoherent-ok elements_equal.sl:9:22 elements_equal.sl eq_concepts.sl iter_lib.sl': '36b96dfe7765b57f4f89c158534627d719471055bd6aebb03b5d6fc128022be7',
    'explain --policy use-site elements_equal.sl:10:21 elements_equal.sl eq_concepts.sl iter_lib.sl': '0ccf9cc20b5021856f5701959b65adb0c24e1f389f5d2660abe4c8d840ceb689',
    'explain --policy def-site-strict elements_equal.sl:10:21 elements_equal.sl eq_concepts.sl iter_lib.sl': '0ccf9cc20b5021856f5701959b65adb0c24e1f389f5d2660abe4c8d840ceb689',
    'explain --policy def-site-disjoint elements_equal.sl:10:21 elements_equal.sl eq_concepts.sl iter_lib.sl': '0ccf9cc20b5021856f5701959b65adb0c24e1f389f5d2660abe4c8d840ceb689',
    'explain --policy scoped elements_equal.sl:10:21 elements_equal.sl eq_concepts.sl iter_lib.sl': '0ccf9cc20b5021856f5701959b65adb0c24e1f389f5d2660abe4c8d840ceb689',
    'explain --policy use-site --prioritize-specific elements_equal.sl:10:21 elements_equal.sl eq_concepts.sl iter_lib.sl': '0ccf9cc20b5021856f5701959b65adb0c24e1f389f5d2660abe4c8d840ceb689',
    'explain --policy use-site --incoherent-ok elements_equal.sl:10:21 elements_equal.sl eq_concepts.sl iter_lib.sl': '0ccf9cc20b5021856f5701959b65adb0c24e1f389f5d2660abe4c8d840ceb689',
    'explain --policy use-site elements_equal.sl:10:45 elements_equal.sl eq_concepts.sl iter_lib.sl': '5f4711d6962cb0aa44e9a48c89d9193be28b189af42855a417b8cda5cbeefdfc',
    'explain --policy def-site-strict elements_equal.sl:10:45 elements_equal.sl eq_concepts.sl iter_lib.sl': '5f4711d6962cb0aa44e9a48c89d9193be28b189af42855a417b8cda5cbeefdfc',
    'explain --policy def-site-disjoint elements_equal.sl:10:45 elements_equal.sl eq_concepts.sl iter_lib.sl': '5f4711d6962cb0aa44e9a48c89d9193be28b189af42855a417b8cda5cbeefdfc',
    'explain --policy scoped elements_equal.sl:10:45 elements_equal.sl eq_concepts.sl iter_lib.sl': '5f4711d6962cb0aa44e9a48c89d9193be28b189af42855a417b8cda5cbeefdfc',
    'explain --policy use-site --prioritize-specific elements_equal.sl:10:45 elements_equal.sl eq_concepts.sl iter_lib.sl': '5f4711d6962cb0aa44e9a48c89d9193be28b189af42855a417b8cda5cbeefdfc',
    'explain --policy use-site --incoherent-ok elements_equal.sl:10:45 elements_equal.sl eq_concepts.sl iter_lib.sl': '5f4711d6962cb0aa44e9a48c89d9193be28b189af42855a417b8cda5cbeefdfc',
    'explain --policy use-site elements_equal.sl:13:19 elements_equal.sl eq_concepts.sl iter_lib.sl': '7d0ca67ab51a285fc3ec2f7a306f1b0ce80be17aa56a897f8e706abe879409fa',
    'explain --policy def-site-strict elements_equal.sl:13:19 elements_equal.sl eq_concepts.sl iter_lib.sl': '7d0ca67ab51a285fc3ec2f7a306f1b0ce80be17aa56a897f8e706abe879409fa',
    'explain --policy def-site-disjoint elements_equal.sl:13:19 elements_equal.sl eq_concepts.sl iter_lib.sl': '7d0ca67ab51a285fc3ec2f7a306f1b0ce80be17aa56a897f8e706abe879409fa',
    'explain --policy scoped elements_equal.sl:13:19 elements_equal.sl eq_concepts.sl iter_lib.sl': '7d0ca67ab51a285fc3ec2f7a306f1b0ce80be17aa56a897f8e706abe879409fa',
    'explain --policy use-site --prioritize-specific elements_equal.sl:13:19 elements_equal.sl eq_concepts.sl iter_lib.sl': '7d0ca67ab51a285fc3ec2f7a306f1b0ce80be17aa56a897f8e706abe879409fa',
    'explain --policy use-site --incoherent-ok elements_equal.sl:13:19 elements_equal.sl eq_concepts.sl iter_lib.sl': '7d0ca67ab51a285fc3ec2f7a306f1b0ce80be17aa56a897f8e706abe879409fa',
    'explain --policy use-site elements_equal.sl:21:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '945e468229e5ad473f6f0a1d5b941e2b41888cef2afcb8908e7f5e7fe83dcd53',
    'explain --policy def-site-strict elements_equal.sl:21:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '945e468229e5ad473f6f0a1d5b941e2b41888cef2afcb8908e7f5e7fe83dcd53',
    'explain --policy def-site-disjoint elements_equal.sl:21:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '945e468229e5ad473f6f0a1d5b941e2b41888cef2afcb8908e7f5e7fe83dcd53',
    'explain --policy scoped elements_equal.sl:21:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '945e468229e5ad473f6f0a1d5b941e2b41888cef2afcb8908e7f5e7fe83dcd53',
    'explain --policy use-site --prioritize-specific elements_equal.sl:21:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '945e468229e5ad473f6f0a1d5b941e2b41888cef2afcb8908e7f5e7fe83dcd53',
    'explain --policy use-site --incoherent-ok elements_equal.sl:21:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '945e468229e5ad473f6f0a1d5b941e2b41888cef2afcb8908e7f5e7fe83dcd53',
    'explain --policy use-site elements_equal.sl:22:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '325b33762f2a8f150989a2195c16b17dcabb977990c68c42e8398c7dc76411aa',
    'explain --policy def-site-strict elements_equal.sl:22:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '325b33762f2a8f150989a2195c16b17dcabb977990c68c42e8398c7dc76411aa',
    'explain --policy def-site-disjoint elements_equal.sl:22:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '325b33762f2a8f150989a2195c16b17dcabb977990c68c42e8398c7dc76411aa',
    'explain --policy scoped elements_equal.sl:22:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '325b33762f2a8f150989a2195c16b17dcabb977990c68c42e8398c7dc76411aa',
    'explain --policy use-site --prioritize-specific elements_equal.sl:22:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '325b33762f2a8f150989a2195c16b17dcabb977990c68c42e8398c7dc76411aa',
    'explain --policy use-site --incoherent-ok elements_equal.sl:22:18 elements_equal.sl eq_concepts.sl iter_lib.sl': '325b33762f2a8f150989a2195c16b17dcabb977990c68c42e8398c7dc76411aa',
    'explain --policy use-site eq_concepts.sl:20:1 eq_concepts.sl': '642c1d705688a0b8608fe0753b0473e8a8eafaded64fd3cc680476da1bb68d80',
    'explain --policy def-site-strict eq_concepts.sl:20:1 eq_concepts.sl': '642c1d705688a0b8608fe0753b0473e8a8eafaded64fd3cc680476da1bb68d80',
    'explain --policy def-site-disjoint eq_concepts.sl:20:1 eq_concepts.sl': '642c1d705688a0b8608fe0753b0473e8a8eafaded64fd3cc680476da1bb68d80',
    'explain --policy scoped eq_concepts.sl:20:1 eq_concepts.sl': '642c1d705688a0b8608fe0753b0473e8a8eafaded64fd3cc680476da1bb68d80',
    'explain --policy use-site --prioritize-specific eq_concepts.sl:20:1 eq_concepts.sl': '642c1d705688a0b8608fe0753b0473e8a8eafaded64fd3cc680476da1bb68d80',
    'explain --policy use-site --incoherent-ok eq_concepts.sl:20:1 eq_concepts.sl': '642c1d705688a0b8608fe0753b0473e8a8eafaded64fd3cc680476da1bb68d80',
    'explain --policy use-site eq_concepts.sl:25:6 eq_concepts.sl': 'cc1b4cc7354abbe0327bb80c9c57f62f1349732db63daaf4118a44f3cc1e6f58',
    'explain --policy def-site-strict eq_concepts.sl:25:6 eq_concepts.sl': 'cc1b4cc7354abbe0327bb80c9c57f62f1349732db63daaf4118a44f3cc1e6f58',
    'explain --policy def-site-disjoint eq_concepts.sl:25:6 eq_concepts.sl': 'cc1b4cc7354abbe0327bb80c9c57f62f1349732db63daaf4118a44f3cc1e6f58',
    'explain --policy scoped eq_concepts.sl:25:6 eq_concepts.sl': 'cc1b4cc7354abbe0327bb80c9c57f62f1349732db63daaf4118a44f3cc1e6f58',
    'explain --policy use-site --prioritize-specific eq_concepts.sl:25:6 eq_concepts.sl': 'cc1b4cc7354abbe0327bb80c9c57f62f1349732db63daaf4118a44f3cc1e6f58',
    'explain --policy use-site --incoherent-ok eq_concepts.sl:25:6 eq_concepts.sl': 'cc1b4cc7354abbe0327bb80c9c57f62f1349732db63daaf4118a44f3cc1e6f58',
    'explain --policy use-site eq_concepts.sl:25:33 eq_concepts.sl': 'd33ff55c7283f9b7e055681a0eb11526cef8517df4487bcab28c93cb3640ca20',
    'explain --policy def-site-strict eq_concepts.sl:25:33 eq_concepts.sl': 'd33ff55c7283f9b7e055681a0eb11526cef8517df4487bcab28c93cb3640ca20',
    'explain --policy def-site-disjoint eq_concepts.sl:25:33 eq_concepts.sl': 'd33ff55c7283f9b7e055681a0eb11526cef8517df4487bcab28c93cb3640ca20',
    'explain --policy scoped eq_concepts.sl:25:33 eq_concepts.sl': 'd33ff55c7283f9b7e055681a0eb11526cef8517df4487bcab28c93cb3640ca20',
    'explain --policy use-site --prioritize-specific eq_concepts.sl:25:33 eq_concepts.sl': 'd33ff55c7283f9b7e055681a0eb11526cef8517df4487bcab28c93cb3640ca20',
    'explain --policy use-site --incoherent-ok eq_concepts.sl:25:33 eq_concepts.sl': 'd33ff55c7283f9b7e055681a0eb11526cef8517df4487bcab28c93cb3640ca20',
    'explain --policy use-site iter_fold.sl:6:15 iter_fold.sl iter_lib.sl': '989768c8bae0008fa0d87e03d2a2fa3f870a524f590cdefcf447ce633edf391d',
    'explain --policy def-site-strict iter_fold.sl:6:15 iter_fold.sl iter_lib.sl': '989768c8bae0008fa0d87e03d2a2fa3f870a524f590cdefcf447ce633edf391d',
    'explain --policy def-site-disjoint iter_fold.sl:6:15 iter_fold.sl iter_lib.sl': '989768c8bae0008fa0d87e03d2a2fa3f870a524f590cdefcf447ce633edf391d',
    'explain --policy scoped iter_fold.sl:6:15 iter_fold.sl iter_lib.sl': '989768c8bae0008fa0d87e03d2a2fa3f870a524f590cdefcf447ce633edf391d',
    'explain --policy use-site --prioritize-specific iter_fold.sl:6:15 iter_fold.sl iter_lib.sl': '989768c8bae0008fa0d87e03d2a2fa3f870a524f590cdefcf447ce633edf391d',
    'explain --policy use-site --incoherent-ok iter_fold.sl:6:15 iter_fold.sl iter_lib.sl': '989768c8bae0008fa0d87e03d2a2fa3f870a524f590cdefcf447ce633edf391d',
    'explain --policy use-site iter_lib.sl:10:9 iter_lib.sl': '9678515042bdec9bd44d3642c6acb851d077d9893e4a8893a272dd41054d841a',
    'explain --policy def-site-strict iter_lib.sl:10:9 iter_lib.sl': '9678515042bdec9bd44d3642c6acb851d077d9893e4a8893a272dd41054d841a',
    'explain --policy def-site-disjoint iter_lib.sl:10:9 iter_lib.sl': '9678515042bdec9bd44d3642c6acb851d077d9893e4a8893a272dd41054d841a',
    'explain --policy scoped iter_lib.sl:10:9 iter_lib.sl': '9678515042bdec9bd44d3642c6acb851d077d9893e4a8893a272dd41054d841a',
    'explain --policy use-site --prioritize-specific iter_lib.sl:10:9 iter_lib.sl': '9678515042bdec9bd44d3642c6acb851d077d9893e4a8893a272dd41054d841a',
    'explain --policy use-site --incoherent-ok iter_lib.sl:10:9 iter_lib.sl': '9678515042bdec9bd44d3642c6acb851d077d9893e4a8893a272dd41054d841a',
    'explain --policy use-site iter_lib.sl:11:16 iter_lib.sl': '982b65af8893c34b1c834526fd74bda92bb2f8dd8955bd2661d26fe04d753709',
    'explain --policy def-site-strict iter_lib.sl:11:16 iter_lib.sl': '982b65af8893c34b1c834526fd74bda92bb2f8dd8955bd2661d26fe04d753709',
    'explain --policy def-site-disjoint iter_lib.sl:11:16 iter_lib.sl': '982b65af8893c34b1c834526fd74bda92bb2f8dd8955bd2661d26fe04d753709',
    'explain --policy scoped iter_lib.sl:11:16 iter_lib.sl': '982b65af8893c34b1c834526fd74bda92bb2f8dd8955bd2661d26fe04d753709',
    'explain --policy use-site --prioritize-specific iter_lib.sl:11:16 iter_lib.sl': '982b65af8893c34b1c834526fd74bda92bb2f8dd8955bd2661d26fe04d753709',
    'explain --policy use-site --incoherent-ok iter_lib.sl:11:16 iter_lib.sl': '982b65af8893c34b1c834526fd74bda92bb2f8dd8955bd2661d26fe04d753709',
    'explain --policy use-site option_iter.sl:16:16 iter_lib.sl option_iter.sl': '0ba69557bfb2c0067cece8575dbb0563695560842c44b9d30175952cd648e426',
    'explain --policy def-site-strict option_iter.sl:16:16 iter_lib.sl option_iter.sl': '0ba69557bfb2c0067cece8575dbb0563695560842c44b9d30175952cd648e426',
    'explain --policy def-site-disjoint option_iter.sl:16:16 iter_lib.sl option_iter.sl': '0ba69557bfb2c0067cece8575dbb0563695560842c44b9d30175952cd648e426',
    'explain --policy scoped option_iter.sl:16:16 iter_lib.sl option_iter.sl': '0ba69557bfb2c0067cece8575dbb0563695560842c44b9d30175952cd648e426',
    'explain --policy use-site --prioritize-specific option_iter.sl:16:16 iter_lib.sl option_iter.sl': '0ba69557bfb2c0067cece8575dbb0563695560842c44b9d30175952cd648e426',
    'explain --policy use-site --incoherent-ok option_iter.sl:16:16 iter_lib.sl option_iter.sl': '0ba69557bfb2c0067cece8575dbb0563695560842c44b9d30175952cd648e426',
    'explain --policy use-site option_show.sl:12:18 option_show.sl show_lib.sl': '48e84485a313879e9c25f7ef7ee644e80efb49fa404fa461f6095f1d616ec754',
    'explain --policy def-site-strict option_show.sl:12:18 option_show.sl show_lib.sl': '48e84485a313879e9c25f7ef7ee644e80efb49fa404fa461f6095f1d616ec754',
    'explain --policy def-site-disjoint option_show.sl:12:18 option_show.sl show_lib.sl': '48e84485a313879e9c25f7ef7ee644e80efb49fa404fa461f6095f1d616ec754',
    'explain --policy scoped option_show.sl:12:18 option_show.sl show_lib.sl': '48e84485a313879e9c25f7ef7ee644e80efb49fa404fa461f6095f1d616ec754',
    'explain --policy use-site --prioritize-specific option_show.sl:12:18 option_show.sl show_lib.sl': '48e84485a313879e9c25f7ef7ee644e80efb49fa404fa461f6095f1d616ec754',
    'explain --policy use-site --incoherent-ok option_show.sl:12:18 option_show.sl show_lib.sl': '48e84485a313879e9c25f7ef7ee644e80efb49fa404fa461f6095f1d616ec754',
    'explain --policy use-site option_show.sl:28:9 option_show.sl show_lib.sl': 'd7c6ab78ced67478353f3f3350e797bfa314e6f78e5745152340b98e0e5cf904',
    'explain --policy def-site-strict option_show.sl:28:9 option_show.sl show_lib.sl': 'd7c6ab78ced67478353f3f3350e797bfa314e6f78e5745152340b98e0e5cf904',
    'explain --policy def-site-disjoint option_show.sl:28:9 option_show.sl show_lib.sl': 'd7c6ab78ced67478353f3f3350e797bfa314e6f78e5745152340b98e0e5cf904',
    'explain --policy scoped option_show.sl:28:9 option_show.sl show_lib.sl': 'd7c6ab78ced67478353f3f3350e797bfa314e6f78e5745152340b98e0e5cf904',
    'explain --policy use-site --prioritize-specific option_show.sl:28:9 option_show.sl show_lib.sl': 'd7c6ab78ced67478353f3f3350e797bfa314e6f78e5745152340b98e0e5cf904',
    'explain --policy use-site --incoherent-ok option_show.sl:28:9 option_show.sl show_lib.sl': 'd7c6ab78ced67478353f3f3350e797bfa314e6f78e5745152340b98e0e5cf904',
    'explain --policy use-site option_show.sl:29:9 option_show.sl show_lib.sl': '1908b8bcf8f7fa88bead291266da23864a1046edf4c98dd2dd2c9f1be116b304',
    'explain --policy def-site-strict option_show.sl:29:9 option_show.sl show_lib.sl': '1908b8bcf8f7fa88bead291266da23864a1046edf4c98dd2dd2c9f1be116b304',
    'explain --policy def-site-disjoint option_show.sl:29:9 option_show.sl show_lib.sl': '1908b8bcf8f7fa88bead291266da23864a1046edf4c98dd2dd2c9f1be116b304',
    'explain --policy scoped option_show.sl:29:9 option_show.sl show_lib.sl': '1908b8bcf8f7fa88bead291266da23864a1046edf4c98dd2dd2c9f1be116b304',
    'explain --policy use-site --prioritize-specific option_show.sl:29:9 option_show.sl show_lib.sl': '7647f4b880b281ef7771fd65abffdd3c763479627dd0eedad28cd57c7a245c91',
    'explain --policy use-site --incoherent-ok option_show.sl:29:9 option_show.sl show_lib.sl': 'f38707cb67073cb194e41077b9b8b6f7ffdeac49c1bdd2a5d25dd1af2131a01b',
    'explain --policy use-site option_show_ok.sl:12:18 option_show_ok.sl show_lib.sl': 'ffb0b8701a180592da9deed11f7d69acab349d5932ce51c04b1d5c85342a8851',
    'explain --policy def-site-strict option_show_ok.sl:12:18 option_show_ok.sl show_lib.sl': 'ffb0b8701a180592da9deed11f7d69acab349d5932ce51c04b1d5c85342a8851',
    'explain --policy def-site-disjoint option_show_ok.sl:12:18 option_show_ok.sl show_lib.sl': 'ffb0b8701a180592da9deed11f7d69acab349d5932ce51c04b1d5c85342a8851',
    'explain --policy scoped option_show_ok.sl:12:18 option_show_ok.sl show_lib.sl': 'ffb0b8701a180592da9deed11f7d69acab349d5932ce51c04b1d5c85342a8851',
    'explain --policy use-site --prioritize-specific option_show_ok.sl:12:18 option_show_ok.sl show_lib.sl': 'ffb0b8701a180592da9deed11f7d69acab349d5932ce51c04b1d5c85342a8851',
    'explain --policy use-site --incoherent-ok option_show_ok.sl:12:18 option_show_ok.sl show_lib.sl': 'ffb0b8701a180592da9deed11f7d69acab349d5932ce51c04b1d5c85342a8851',
    'explain --policy use-site option_show_ok.sl:28:9 option_show_ok.sl show_lib.sl': 'c2c121c6dc17349d3056c7b6ad587366ce5904f9fc7fa13ca5c2aedc94c0f06a',
    'explain --policy def-site-strict option_show_ok.sl:28:9 option_show_ok.sl show_lib.sl': 'c2c121c6dc17349d3056c7b6ad587366ce5904f9fc7fa13ca5c2aedc94c0f06a',
    'explain --policy def-site-disjoint option_show_ok.sl:28:9 option_show_ok.sl show_lib.sl': 'c2c121c6dc17349d3056c7b6ad587366ce5904f9fc7fa13ca5c2aedc94c0f06a',
    'explain --policy scoped option_show_ok.sl:28:9 option_show_ok.sl show_lib.sl': 'c2c121c6dc17349d3056c7b6ad587366ce5904f9fc7fa13ca5c2aedc94c0f06a',
    'explain --policy use-site --prioritize-specific option_show_ok.sl:28:9 option_show_ok.sl show_lib.sl': 'c2c121c6dc17349d3056c7b6ad587366ce5904f9fc7fa13ca5c2aedc94c0f06a',
    'explain --policy use-site --incoherent-ok option_show_ok.sl:28:9 option_show_ok.sl show_lib.sl': 'c2c121c6dc17349d3056c7b6ad587366ce5904f9fc7fa13ca5c2aedc94c0f06a',
    'explain --policy use-site orphan_local_type.sl:14:30 orphan_lib.sl orphan_local_type.sl': '59f03240bb528fe3cfebb9326d152a4e19e861aea60aa5358bcaee9377773e3c',
    'explain --policy def-site-strict orphan_local_type.sl:14:30 orphan_lib.sl orphan_local_type.sl': '59f03240bb528fe3cfebb9326d152a4e19e861aea60aa5358bcaee9377773e3c',
    'explain --policy def-site-disjoint orphan_local_type.sl:14:30 orphan_lib.sl orphan_local_type.sl': '59f03240bb528fe3cfebb9326d152a4e19e861aea60aa5358bcaee9377773e3c',
    'explain --policy scoped orphan_local_type.sl:14:30 orphan_lib.sl orphan_local_type.sl': '59f03240bb528fe3cfebb9326d152a4e19e861aea60aa5358bcaee9377773e3c',
    'explain --policy use-site --prioritize-specific orphan_local_type.sl:14:30 orphan_lib.sl orphan_local_type.sl': '59f03240bb528fe3cfebb9326d152a4e19e861aea60aa5358bcaee9377773e3c',
    'explain --policy use-site --incoherent-ok orphan_local_type.sl:14:30 orphan_lib.sl orphan_local_type.sl': '59f03240bb528fe3cfebb9326d152a4e19e861aea60aa5358bcaee9377773e3c',
    'explain --policy use-site range_iter.sl:21:26 iter_lib.sl range_iter.sl': '4c726fde7d335a756559396352eefba37d34a570e121a904cbf0504211683bfc',
    'explain --policy def-site-strict range_iter.sl:21:26 iter_lib.sl range_iter.sl': '4c726fde7d335a756559396352eefba37d34a570e121a904cbf0504211683bfc',
    'explain --policy def-site-disjoint range_iter.sl:21:26 iter_lib.sl range_iter.sl': '4c726fde7d335a756559396352eefba37d34a570e121a904cbf0504211683bfc',
    'explain --policy scoped range_iter.sl:21:26 iter_lib.sl range_iter.sl': '4c726fde7d335a756559396352eefba37d34a570e121a904cbf0504211683bfc',
    'explain --policy use-site --prioritize-specific range_iter.sl:21:26 iter_lib.sl range_iter.sl': '4c726fde7d335a756559396352eefba37d34a570e121a904cbf0504211683bfc',
    'explain --policy use-site --incoherent-ok range_iter.sl:21:26 iter_lib.sl range_iter.sl': '4c726fde7d335a756559396352eefba37d34a570e121a904cbf0504211683bfc',
    'explain --policy use-site range_iter.sl:21:60 iter_lib.sl range_iter.sl': '5f33a996566a6257cc1718b7b1407d8a2bd835e12d18c46d5387729d78ec838d',
    'explain --policy def-site-strict range_iter.sl:21:60 iter_lib.sl range_iter.sl': '5f33a996566a6257cc1718b7b1407d8a2bd835e12d18c46d5387729d78ec838d',
    'explain --policy def-site-disjoint range_iter.sl:21:60 iter_lib.sl range_iter.sl': '5f33a996566a6257cc1718b7b1407d8a2bd835e12d18c46d5387729d78ec838d',
    'explain --policy scoped range_iter.sl:21:60 iter_lib.sl range_iter.sl': '5f33a996566a6257cc1718b7b1407d8a2bd835e12d18c46d5387729d78ec838d',
    'explain --policy use-site --prioritize-specific range_iter.sl:21:60 iter_lib.sl range_iter.sl': '5f33a996566a6257cc1718b7b1407d8a2bd835e12d18c46d5387729d78ec838d',
    'explain --policy use-site --incoherent-ok range_iter.sl:21:60 iter_lib.sl range_iter.sl': '5f33a996566a6257cc1718b7b1407d8a2bd835e12d18c46d5387729d78ec838d',
    'explain --policy use-site range_iter.sl:27:16 iter_lib.sl range_iter.sl': 'c8f8ddbc86981eacdf8264c96ff58d2272ddc6bfe3a8e25c0d6cae2a47bdf5f2',
    'explain --policy def-site-strict range_iter.sl:27:16 iter_lib.sl range_iter.sl': 'c8f8ddbc86981eacdf8264c96ff58d2272ddc6bfe3a8e25c0d6cae2a47bdf5f2',
    'explain --policy def-site-disjoint range_iter.sl:27:16 iter_lib.sl range_iter.sl': 'c8f8ddbc86981eacdf8264c96ff58d2272ddc6bfe3a8e25c0d6cae2a47bdf5f2',
    'explain --policy scoped range_iter.sl:27:16 iter_lib.sl range_iter.sl': 'c8f8ddbc86981eacdf8264c96ff58d2272ddc6bfe3a8e25c0d6cae2a47bdf5f2',
    'explain --policy use-site --prioritize-specific range_iter.sl:27:16 iter_lib.sl range_iter.sl': 'c8f8ddbc86981eacdf8264c96ff58d2272ddc6bfe3a8e25c0d6cae2a47bdf5f2',
    'explain --policy use-site --incoherent-ok range_iter.sl:27:16 iter_lib.sl range_iter.sl': 'c8f8ddbc86981eacdf8264c96ff58d2272ddc6bfe3a8e25c0d6cae2a47bdf5f2',
    'explain --policy use-site string_conv.sl:15:66 iter_lib.sl string_conv.sl': '694da193a5d6bab1175ac82d5bb10e1b731b7db672522e7cebcb289a7d5f57ac',
    'explain --policy def-site-strict string_conv.sl:15:66 iter_lib.sl string_conv.sl': '694da193a5d6bab1175ac82d5bb10e1b731b7db672522e7cebcb289a7d5f57ac',
    'explain --policy def-site-disjoint string_conv.sl:15:66 iter_lib.sl string_conv.sl': '694da193a5d6bab1175ac82d5bb10e1b731b7db672522e7cebcb289a7d5f57ac',
    'explain --policy scoped string_conv.sl:15:66 iter_lib.sl string_conv.sl': '694da193a5d6bab1175ac82d5bb10e1b731b7db672522e7cebcb289a7d5f57ac',
    'explain --policy use-site --prioritize-specific string_conv.sl:15:66 iter_lib.sl string_conv.sl': '694da193a5d6bab1175ac82d5bb10e1b731b7db672522e7cebcb289a7d5f57ac',
    'explain --policy use-site --incoherent-ok string_conv.sl:15:66 iter_lib.sl string_conv.sl': '694da193a5d6bab1175ac82d5bb10e1b731b7db672522e7cebcb289a7d5f57ac',
    'explain --policy use-site string_conv.sl:15:24 iter_lib.sl string_conv.sl': '918b5845221c829ef026429f99cdb9f98f5f6f986d440aef4e64943b3d0a38ed',
    'explain --policy def-site-strict string_conv.sl:15:24 iter_lib.sl string_conv.sl': '918b5845221c829ef026429f99cdb9f98f5f6f986d440aef4e64943b3d0a38ed',
    'explain --policy def-site-disjoint string_conv.sl:15:24 iter_lib.sl string_conv.sl': '918b5845221c829ef026429f99cdb9f98f5f6f986d440aef4e64943b3d0a38ed',
    'explain --policy scoped string_conv.sl:15:24 iter_lib.sl string_conv.sl': '918b5845221c829ef026429f99cdb9f98f5f6f986d440aef4e64943b3d0a38ed',
    'explain --policy use-site --prioritize-specific string_conv.sl:15:24 iter_lib.sl string_conv.sl': '918b5845221c829ef026429f99cdb9f98f5f6f986d440aef4e64943b3d0a38ed',
    'explain --policy use-site --incoherent-ok string_conv.sl:15:24 iter_lib.sl string_conv.sl': '918b5845221c829ef026429f99cdb9f98f5f6f986d440aef4e64943b3d0a38ed',
    'explain --policy use-site string_conv_overlap.sl:7:9 iter_lib.sl string_conv.sl string_conv_overlap.sl': 'b801a66145363743279af58b604d34ceca443cdea32ae6bf10cfbafcbfac49b8',
    'explain --policy def-site-strict string_conv_overlap.sl:7:9 iter_lib.sl string_conv.sl string_conv_overlap.sl': 'b801a66145363743279af58b604d34ceca443cdea32ae6bf10cfbafcbfac49b8',
    'explain --policy def-site-disjoint string_conv_overlap.sl:7:9 iter_lib.sl string_conv.sl string_conv_overlap.sl': 'b801a66145363743279af58b604d34ceca443cdea32ae6bf10cfbafcbfac49b8',
    'explain --policy scoped string_conv_overlap.sl:7:9 iter_lib.sl string_conv.sl string_conv_overlap.sl': 'b801a66145363743279af58b604d34ceca443cdea32ae6bf10cfbafcbfac49b8',
    'explain --policy use-site --prioritize-specific string_conv_overlap.sl:7:9 iter_lib.sl string_conv.sl string_conv_overlap.sl': 'bda30a12689b9f934766501c7668c34bb0e6221425766c79bc823070c5e7260a',
    'explain --policy use-site --incoherent-ok string_conv_overlap.sl:7:9 iter_lib.sl string_conv.sl string_conv_overlap.sl': '44ee3bb106a865d6432ab28b4faf0178ff8ac5eafd9b6774477d19cf49d7e1a3',
    'explain --policy use-site unstable_log.sl:7:9 iter_lib.sl string_conv.sl unstable_log.sl': '60188d3dc50d411bb2f45fdefdb09d9944b5cef7a58cc538cb5a13ad7f1c788e',
    'explain --policy def-site-strict unstable_log.sl:7:9 iter_lib.sl string_conv.sl unstable_log.sl': '60188d3dc50d411bb2f45fdefdb09d9944b5cef7a58cc538cb5a13ad7f1c788e',
    'explain --policy def-site-disjoint unstable_log.sl:7:9 iter_lib.sl string_conv.sl unstable_log.sl': '60188d3dc50d411bb2f45fdefdb09d9944b5cef7a58cc538cb5a13ad7f1c788e',
    'explain --policy scoped unstable_log.sl:7:9 iter_lib.sl string_conv.sl unstable_log.sl': '60188d3dc50d411bb2f45fdefdb09d9944b5cef7a58cc538cb5a13ad7f1c788e',
    'explain --policy use-site --prioritize-specific unstable_log.sl:7:9 iter_lib.sl string_conv.sl unstable_log.sl': '60188d3dc50d411bb2f45fdefdb09d9944b5cef7a58cc538cb5a13ad7f1c788e',
    'explain --policy use-site --incoherent-ok unstable_log.sl:7:9 iter_lib.sl string_conv.sl unstable_log.sl': '60188d3dc50d411bb2f45fdefdb09d9944b5cef7a58cc538cb5a13ad7f1c788e',
    'explain --policy use-site unstable_log.sl:11:3 iter_lib.sl string_conv.sl unstable_log.sl': '7746f200c31431b87f4788d079b1a162364978342c7549d4a64329c96e88f0a1',
    'explain --policy def-site-strict unstable_log.sl:11:3 iter_lib.sl string_conv.sl unstable_log.sl': '7746f200c31431b87f4788d079b1a162364978342c7549d4a64329c96e88f0a1',
    'explain --policy def-site-disjoint unstable_log.sl:11:3 iter_lib.sl string_conv.sl unstable_log.sl': '7746f200c31431b87f4788d079b1a162364978342c7549d4a64329c96e88f0a1',
    'explain --policy scoped unstable_log.sl:11:3 iter_lib.sl string_conv.sl unstable_log.sl': '7746f200c31431b87f4788d079b1a162364978342c7549d4a64329c96e88f0a1',
    'explain --policy use-site --prioritize-specific unstable_log.sl:11:3 iter_lib.sl string_conv.sl unstable_log.sl': 'bef6bf0fe9c1bbf95c20d91e7b71eacee574d379c99d3401d32ec68e3a84ba47',
    'explain --policy use-site --incoherent-ok unstable_log.sl:11:3 iter_lib.sl string_conv.sl unstable_log.sl': 'd9d16f6aeeb8b7d4b6396d86da0841a3d87799e8a5901ffaada5ceea8be6a305',
}


def test_explain_text_matches_the_pinned_table(monkeypatch):
    monkeypatch.setenv("SL_COLOR", "0")
    got = table()
    assert sorted(got) == sorted(EXPECTED)
    changed = [argv for argv, d in got.items() if EXPECTED[argv] != d]
    assert not changed, f"{len(changed)} invocations changed bytes, e.g. {changed[:5]}"


if __name__ == "__main__":
    os.environ["SL_COLOR"] = "0"
    sys.stdout.write("EXPECTED: dict[str, str] = {\n")
    for argv, d in table().items():
        sys.stdout.write(f"    {argv!r}: {d!r},\n")
    sys.stdout.write("}\n")
