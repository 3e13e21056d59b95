// Unit tests for the data module: element table, material generation and the
// band-gap model's physical structure, corpus generation (Table I shape),
// screening classifier, and the token dataset.

#include <gtest/gtest.h>

#include <set>

#include "data/classifier.h"
#include "data/corpus.h"
#include "data/dataset.h"
#include "data/elements.h"
#include "data/materials.h"

namespace matgpt::data {
namespace {

TEST(Elements, TableIsWellFormed) {
  const auto table = element_table();
  ASSERT_GT(table.size(), 30u);
  std::set<std::string> symbols;
  for (const auto& e : table) {
    EXPECT_GT(e.electronegativity, 0.5);
    EXPECT_LT(e.electronegativity, 4.5);
    EXPECT_GE(e.valence, 1);
    EXPECT_LE(e.valence, 7);
    EXPECT_GT(e.atomic_radius_pm, 20.0);
    EXPECT_TRUE(symbols.insert(e.symbol).second) << "duplicate " << e.symbol;
  }
}

TEST(Elements, LookupBySymbol) {
  const auto fe = element_index("Fe");
  ASSERT_TRUE(fe.has_value());
  EXPECT_STREQ(element_table()[*fe].name, "iron");
  EXPECT_FALSE(element_index("Xx").has_value());
}

TEST(BandGapModel, PureMetalsAreConductors) {
  for (const char* sym : {"Cu", "Fe", "Al", "Na"}) {
    const auto idx = element_index(sym);
    ASSERT_TRUE(idx.has_value());
    const auto m = MaterialGenerator::from_composition({{*idx, 1}});
    EXPECT_EQ(m.gap_class, GapClass::kConductor) << sym;
    EXPECT_LT(m.band_gap_ev, 0.5) << sym;
  }
}

TEST(BandGapModel, IonicCompoundsOpenTheGap) {
  // Alkali halides: large electronegativity spread => insulator.
  const auto na = *element_index("Na");
  const auto f = *element_index("F");
  const auto naf = MaterialGenerator::from_composition({{na, 1}, {f, 1}});
  EXPECT_GT(naf.band_gap_ev, 2.5);
  // vs. a covalent metalloid compound: smaller gap.
  const auto ga = *element_index("Ga");
  const auto as = *element_index("As");
  const auto gaas = MaterialGenerator::from_composition({{ga, 1}, {as, 1}});
  EXPECT_LT(gaas.band_gap_ev, naf.band_gap_ev);
}

TEST(BandGapModel, DeterministicPerFormula) {
  const auto li = *element_index("Li");
  const auto o = *element_index("O");
  const auto a = MaterialGenerator::from_composition({{li, 2}, {o, 1}});
  const auto b = MaterialGenerator::from_composition({{li, 2}, {o, 1}});
  EXPECT_EQ(a.band_gap_ev, b.band_gap_ev);
  EXPECT_EQ(a.formula, "Li2O");
}

TEST(BandGapModel, ClassBoundaries) {
  EXPECT_EQ(classify_gap(0.0), GapClass::kConductor);
  EXPECT_EQ(classify_gap(1.5), GapClass::kSemiconductor);
  EXPECT_EQ(classify_gap(5.0), GapClass::kInsulator);
}

TEST(BandGapModel, FormationEnergyIsNonPositive) {
  MaterialGenerator gen(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(gen.sample().formation_energy_ev, 0.0);
  }
}

TEST(Materials, GeneratorProducesAllThreeClasses) {
  MaterialGenerator gen(11);
  std::set<GapClass> seen;
  for (int i = 0; i < 200; ++i) seen.insert(gen.sample().gap_class);
  EXPECT_EQ(seen.size(), 3u) << "band-gap model must span all classes";
}

TEST(Materials, SampleUniqueHasNoDuplicates) {
  MaterialGenerator gen(13);
  const auto mats = gen.sample_unique(100);
  std::set<std::string> formulas;
  for (const auto& m : mats) {
    EXPECT_TRUE(formulas.insert(m.formula).second) << m.formula;
  }
}

TEST(Materials, FormulaFormatting) {
  const auto li = *element_index("Li");
  const auto fe = *element_index("Fe");
  const auto o = *element_index("O");
  EXPECT_EQ(format_formula({{li, 2}, {fe, 1}, {o, 4}}), "Li2FeO4");
  EXPECT_EQ(format_formula({{fe, 1}}), "Fe");
}

TEST(Corpus, Table1SourcesScale) {
  const auto sources = table1_sources(1e-6);
  ASSERT_EQ(sources.size(), 4u);
  EXPECT_EQ(sources[0].name, "CORE");
  EXPECT_EQ(sources[0].n_abstracts, 3u);   // 2.5M * 1e-6 rounded
  EXPECT_EQ(sources[1].n_abstracts, 15u);  // MAG 15M
  EXPECT_EQ(sources[3].materials_fraction, 1.0);  // SCOPUS pre-filtered
  EXPECT_THROW(table1_sources(0.0), Error);
}

TEST(Corpus, AbstractsEmbedTheGroundTruthFacts) {
  AbstractGenerator gen(3);
  MaterialGenerator mats(3);
  const auto m = mats.sample();
  const auto text = gen.materials_abstract(m);
  EXPECT_NE(text.find(m.formula), std::string::npos);
  EXPECT_NE(text.find("band gap"), std::string::npos);
  EXPECT_NE(text.find(gap_class_name(m.gap_class)), std::string::npos);
}

TEST(Corpus, FullTextIsLongerThanAbstract) {
  AbstractGenerator gen(3);
  MaterialGenerator mats(4);
  const auto m = mats.sample();
  EXPECT_GT(gen.materials_full_text(m).size(),
            gen.materials_abstract(m).size());
}

TEST(Corpus, BuilderHonorsSourceShape) {
  CorpusBuilder builder(7, 50);
  const std::vector<SourceSpec> sources{{"CORE", 20, 5, 0.5},
                                        {"SCOPUS", 10, 0, 1.0}};
  const auto docs = builder.build(sources);
  ASSERT_EQ(docs.size(), 35u);
  std::size_t core_full = 0, scopus_materials = 0, scopus_total = 0;
  for (const auto& d : docs) {
    if (d.source == "CORE" && d.full_text) ++core_full;
    if (d.source == "SCOPUS") {
      ++scopus_total;
      scopus_materials += d.domain == DocDomain::kMaterials;
    }
  }
  EXPECT_EQ(core_full, 5u);
  EXPECT_EQ(scopus_total, 10u);
  EXPECT_EQ(scopus_materials, 10u);  // fraction 1.0 => all materials
}

TEST(Corpus, OffDomainRejectsMaterials) {
  AbstractGenerator gen(3);
  EXPECT_THROW(gen.off_domain_abstract(DocDomain::kMaterials), Error);
}

TEST(Classifier, ScreensWithHighAccuracyOnSyntheticDomains) {
  CorpusBuilder builder(21, 80);
  const std::vector<SourceSpec> sources{{"MAG", 300, 0, 0.5}};
  auto docs = builder.build(sources);
  // Train on the first 60, evaluate on the rest.
  std::vector<Document> train_set(docs.begin(), docs.begin() + 60);
  std::vector<Document> test_set(docs.begin() + 60, docs.end());
  const auto clf = DomainClassifier::train(train_set);
  const auto q = clf.evaluate(test_set);
  EXPECT_GT(q.precision, 0.9);
  EXPECT_GT(q.recall, 0.9);
  const auto kept = clf.screen(test_set);
  EXPECT_EQ(kept.size(), q.kept);
}

TEST(Classifier, RequiresBothClasses) {
  CorpusBuilder builder(23, 20);
  const std::vector<SourceSpec> sources{{"SCOPUS", 10, 0, 1.0}};
  auto docs = builder.build(sources);  // all materials
  EXPECT_THROW(DomainClassifier::train(docs), Error);
}

TEST(Dataset, PacksWithEosSeparators) {
  std::vector<Document> docs{{"X", "aa bb", false, DocDomain::kMaterials},
                             {"X", "cc", false, DocDomain::kMaterials}};
  const auto tk = tok::BpeTokenizer::train({"aa bb cc"},
                                           tok::TokenizerKind::kHuggingFace,
                                           265);
  TokenDataset ds(docs, tk, 0.25, 3);
  // The stream must contain exactly two EOS markers (one per doc).
  std::size_t eos = 0;
  for (std::int32_t t : ds.stream()) eos += t == tok::SpecialTokens::kEos;
  EXPECT_EQ(eos, 2u);
  EXPECT_EQ(ds.total_tokens(), ds.train_tokens() + ds.val_tokens());
}

TEST(Dataset, BatchTargetsAreShiftedTokens) {
  std::vector<Document> docs;
  for (int i = 0; i < 30; ++i) {
    docs.push_back({"X", "the band gap of LiFePO4 is large", false,
                    DocDomain::kMaterials});
  }
  const auto tk = tok::BpeTokenizer::train(
      {"the band gap of LiFePO4 is large"},
      tok::TokenizerKind::kHuggingFace, 280);
  TokenDataset ds(docs, tk, 0.2, 5);
  auto batch = ds.sample_batch(2, 8);
  EXPECT_EQ(batch.tokens.size(), 16u);
  const auto stream = ds.stream();
  // Each target must be the stream successor of its token; verify via a
  // fresh lookup window: target[i] should equal tokens[i+1] within a row.
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t t = 0; t + 1 < 8; ++t) {
      EXPECT_EQ(batch.targets[b * 8 + t], batch.tokens[b * 8 + t + 1]);
    }
  }
  (void)stream;
}

TEST(Dataset, ValidationWindowsComeFromTheTail) {
  std::vector<Document> docs;
  for (int i = 0; i < 50; ++i) {
    docs.push_back({"X", "some materials text about band gaps", false,
                    DocDomain::kMaterials});
  }
  const auto tk = tok::BpeTokenizer::train(
      {"some materials text about band gaps"},
      tok::TokenizerKind::kHuggingFace, 280);
  TokenDataset ds(docs, tk, 0.3, 5);
  // Deterministic: same offset => same batch.
  const auto a = ds.validation_batch(2, 8, 0);
  const auto b = ds.validation_batch(2, 8, 0);
  EXPECT_EQ(a.tokens, b.tokens);
  const auto c = ds.validation_batch(2, 8, 1);
  EXPECT_NE(a.tokens, c.tokens);
}

TEST(Dataset, RejectsDegenerateConfigs) {
  std::vector<Document> docs{{"X", "tiny", false, DocDomain::kMaterials}};
  const auto tk = tok::BpeTokenizer::train({"tiny"},
                                           tok::TokenizerKind::kHuggingFace,
                                           265);
  EXPECT_THROW(TokenDataset(docs, tk, 0.0, 1), Error);
  TokenDataset ds(docs, tk, 0.4, 1);
  EXPECT_THROW(ds.sample_batch(1, 1000), Error);
}

TEST(Dataset, MlmBatchMasksAndRestores) {
  LmBatch lm;
  lm.batch = 1;
  lm.seq = 8;
  lm.tokens = {10, 11, 12, 13, 14, 15, 16, 17};
  lm.targets = lm.tokens;
  Rng rng(5);
  const auto mlm = to_mlm_batch(lm, tok::SpecialTokens::kMask, 0.4f, rng);
  int masked = 0;
  for (std::size_t i = 0; i < mlm.tokens.size(); ++i) {
    if (mlm.targets[i] != -1) {
      ++masked;
      EXPECT_EQ(mlm.tokens[i], tok::SpecialTokens::kMask);
      EXPECT_EQ(mlm.targets[i], lm.tokens[i]);
    } else {
      EXPECT_EQ(mlm.tokens[i], lm.tokens[i]);
    }
  }
  EXPECT_GE(masked, 1);
}

}  // namespace
}  // namespace matgpt::data
