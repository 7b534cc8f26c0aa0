-- The Fig. 3 consumption view `journal_entry_item_browser` over the ERP
-- schema of `erp.rs`, as CDS-style DDL: 47 table instances (62 references,
-- counting shared views once per use), 49 joins, one five-way UNION ALL,
-- one GROUP BY and one DISTINCT. Every augmenter is a LEFT OUTER MANY TO
-- ONE join; a named view referenced twice binds to one shared subplan.

-- The shared country view G = t005 ⟕ t005t ⟕ t005u, used by five augmenters.
create view country as
select t005.land1, t005.landx, t005.regio, t005t.natio, t005u.bezei
from t005
  left outer many to one join t005t on t005.land1 = t005t.land1
  left outer many to one join t005u on t005.land1 = t005u.land1;

-- Dimensions joined twice, on two journal columns each: one scan per view.
create view usr02_dim as select dimkey, txt from usr02;
create view tcurc_dim as select dimkey, txt from tcurc;
create view fagl_segm_dim as select dimkey, txt from fagl_segm;

create view journal_entry_item_browser as
select
  a.rldnr as Ledger, a.rbukrs as CompanyCode, a.gjahr as FiscalYear,
  a.belnr as AccountingDocument, a.docln as LineItem,
  a.hsl as AmountInCompanyCodeCurrency, a.ksl as AmountInGlobalCurrency,
  a.msl as Quantity, a.drcrk as DebitCreditCode, a.budat as PostingDate,
  t001.butxt as CompanyName, t881.lname as LedgerName,
  sup.name1 as SupplierName, sup.ktokk as SupplierGroup, sg.landx as SupplierCountryName,
  cus.name1 as CustomerName, cus.land1 as CustomerCountry, cg.landx as CustomerCountryName,
  bp.bp_name as PartnerName,
  oi.open_amount as OpenAmount, oi.open_items as OpenItemCount,
  t001w.txt as PlantName, t012.txt as BankName, twlad.txt as SiteName,
  skat.txt as GLAccountText, cskt.txt as CostCenterText,
  cepct.txt as ProfitCenterText, makt.txt as MaterialText,
  aufkt.txt as OrderIDText, auart_grp.txt as OrderIDGroup,
  prpst.txt as WBSElementText, prps_grp.txt as WBSElementGroup,
  anlat.txt as AssetText, anla_grp.txt as AssetGroup,
  cur.txt as TransactionCurrencyText, t003.txt as DocumentTypeText,
  usr.txt as CreatedByText, seg.txt as SegmentText, tgsb.txt as BusinessAreaText,
  t007a.txt as TaxCodeText, t042z.txt as PaymentMethodText,
  t052.txt as PaymentTermsText, t880.txt as TradingPartnerText,
  t047.txt as DunningLevelText, tbsl.txt as PostingKeyText,
  t856.txt as TransactionTypeText,
  usr2.txt as ChangedByText, cur2.txt as CompanyCurrencyText,
  seg2.txt as PartnerSegmentText
from acdoca a
  -- The interface view: company and ledger always exist.
  inner many to exact one join t001 on a.rbukrs = t001.rbukrs
  inner many to exact one join t881 on a.rldnr = t881.rldnr
  -- Supplier and customer, both under DAC.
  left outer many to one join
    (lfa1 sup left outer many to one join country sg on sup.land1 = sg.land1)
    on a.lifnr = sup.lifnr
  left outer many to one join
    (kna1 cus left outer many to one join country cg on cus.land1 = cg.land1)
    on a.kunnr = cus.kunnr
  -- Business partner: the five role tables as one UNION ALL (Fig. 11c).
  left outer many to one join
    (select 0 as bp_type, bp_id, bp_name from bp_soldto
     union all select 1 as bp_type, bp_id, bp_name from bp_shipto
     union all select 2 as bp_type, bp_id, bp_name from bp_billto
     union all select 3 as bp_type, bp_id, bp_name from bp_payer
     union all select 4 as bp_type, bp_id, bp_name from bp_contact) bp
    on a.bp_type = bp.bp_type and a.bp_id = bp.bp_id
  -- Open items per document (GROUP BY) and attachment existence (DISTINCT).
  left outer many to one join
    (select belnr, sum(open_amount) as open_amount, count(*) as open_items
     from bseg_open group by belnr) oi
    on a.belnr = oi.belnr
  left outer many to one join (select distinct belnr from attachments) att
    on a.belnr = att.belnr
  -- Country dimensions.
  left outer many to one join
    (t001w left outer many to one join country c1 on t001w.land1 = c1.land1)
    on a.werks = t001w.dimkey
  left outer many to one join
    (t012 left outer many to one join country c2 on t012.land1 = c2.land1)
    on a.bankl = t012.dimkey
  left outer many to one join
    (twlad left outer many to one join country c3 on twlad.land1 = c3.land1)
    on a.site = twlad.dimkey
  -- Text dimensions.
  left outer many to one join
    (ska1 left outer many to one join skat on ska1.dimkey = skat.dimkey)
    on a.racct = ska1.dimkey
  left outer many to one join
    (csks left outer many to one join cskt on csks.dimkey = cskt.dimkey)
    on a.kostl = csks.dimkey
  left outer many to one join
    (cepc left outer many to one join cepct on cepc.dimkey = cepct.dimkey)
    on a.prctr = cepc.dimkey
  left outer many to one join
    (mara left outer many to one join makt on mara.dimkey = makt.dimkey)
    on a.matnr = mara.dimkey
  -- Three-level dimensions: base, texts, groups.
  left outer many to one join
    (aufk left outer many to one join aufkt on aufk.dimkey = aufkt.dimkey
      left outer many to one join auart_grp on aufk.grp = auart_grp.dimkey)
    on a.aufnr = aufk.dimkey
  left outer many to one join
    (prps left outer many to one join prpst on prps.dimkey = prpst.dimkey
      left outer many to one join prps_grp on prps.grp = prps_grp.dimkey)
    on a.pspnr = prps.dimkey
  left outer many to one join
    (anla left outer many to one join anlat on anla.dimkey = anlat.dimkey
      left outer many to one join anla_grp on anla.grp = anla_grp.dimkey)
    on a.anln1 = anla.dimkey
  -- Simple dimensions.
  left outer many to one join tcurc_dim cur on a.rtcur = cur.dimkey
  left outer many to one join t003 on a.blart = t003.dimkey
  left outer many to one join usr02_dim usr on a.usnam = usr.dimkey
  left outer many to one join fagl_segm_dim seg on a.segment = seg.dimkey
  left outer many to one join tgsb on a.gsber = tgsb.dimkey
  left outer many to one join t007a on a.mwskz = t007a.dimkey
  left outer many to one join t042z on a.zlsch = t042z.dimkey
  left outer many to one join t052 on a.zterm = t052.dimkey
  left outer many to one join t880 on a.vbund = t880.dimkey
  left outer many to one join t047 on a.mahns = t047.dimkey
  left outer many to one join tbsl on a.bschl = tbsl.dimkey
  left outer many to one join t856 on a.rmvct = t856.dimkey
  -- The same three dimensions again, on other journal columns.
  left outer many to one join usr02_dim usr2 on a.usnam2 = usr2.dimkey
  left outer many to one join tcurc_dim cur2 on a.hwaer = cur2.dimkey
  left outer many to one join fagl_segm_dim seg2 on a.psegment = seg2.dimkey;
